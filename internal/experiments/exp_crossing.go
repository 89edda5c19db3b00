package experiments

import (
	"fmt"
	"strings"

	"muml/internal/core"
	"muml/internal/crossing"
	"muml/internal/ctl"
	"muml/internal/legacy"
)

// RunE13 runs the timed rail-crossing case study: the discrete-clock
// machinery (I/O-interval structures, §2) carried through the whole
// integration loop. A deadline-respecting gate controller is proven safe;
// a sluggish one and a stuck one are convicted with real counterexamples.
func RunE13() (*Result, error) {
	type row struct {
		name     string
		comp     legacy.Component
		property ctl.Formula
		want     core.Verdict
	}
	rows := []row{
		{"swift gate (2 ticks), safety", crossing.SwiftGate(), crossing.Constraint(), core.VerdictProven},
		{"swift gate, safety + deadline", crossing.SwiftGate(),
			ctl.And(crossing.Constraint(), crossing.ClosureDeadline()), core.VerdictProven},
		{"sluggish gate (6 ticks)", crossing.SluggishGate(), crossing.Constraint(), core.VerdictViolation},
		{"stuck gate", crossing.StuckGate(), crossing.Constraint(), core.VerdictViolation},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "train reaches the crossing exactly %d time units after announcing\n\n",
		crossing.ApproachTime)
	match := true
	for _, r := range rows {
		synth, err := core.New(crossing.TrainRole(), r.comp, crossing.GateInterface(),
			core.Options{Property: r.property})
		if err != nil {
			return nil, err
		}
		report, err := synth.Run()
		if err != nil {
			return nil, err
		}
		ok := report.Verdict == r.want
		if !ok {
			match = false
		}
		fmt.Fprintf(&b, "%-32s verdict=%v (%v) iterations=%d learned=%d states  ok=%v\n",
			r.name, report.Verdict, report.Kind, report.Stats.Iterations,
			report.Model.Automaton().NumStates(), ok)
		if report.Verdict == core.VerdictViolation && r.name == "sluggish gate (6 ticks)" {
			fmt.Fprintf(&b, "\nwitness (train on the crossing while the gate is still closing):\n%s\n",
				report.WitnessText())
		}
	}
	return &Result{
		ID:            "E13",
		Title:         "Timed case study: rail-crossing gate",
		PaperArtifact: "§2 discrete-time/clock model (I/O-interval structures) exercised end to end",
		Expectation:   "deadline-respecting controller proven; deadline-missing controllers convicted with real counterexamples",
		Measured:      fmt.Sprintf("4 controller/property combinations, all verdicts as expected: %v", match),
		Match:         match,
		Details:       b.String(),
	}, nil
}
