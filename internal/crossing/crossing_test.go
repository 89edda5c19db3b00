package crossing

import (
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/legacy"
)

func newSynth(t *testing.T, comp legacy.Component, property ctl.Formula) *core.Synthesizer {
	t.Helper()
	s, err := core.New(TrainRole(), comp, GateInterface(), core.Options{Property: property})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrainRoleTiming(t *testing.T) {
	train := TrainRole()
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	// The crossing is reached exactly ApproachTime units after the
	// announcement on every announcing path: AG(approach-just-sent →
	// AF[4,4] crossing) cannot be stated directly on outputs, so check
	// via the approaching label: entering approaching leads to crossing
	// in exactly ApproachTime steps.
	checker := ctl.NewChecker(train)
	holds := checker.Holds(ctl.MustParse(
		"AG (trainRole.approaching -> AF[1,4] trainRole.crossing)"))
	if !holds {
		t.Fatalf("train does not reach the crossing within %d units:\n%s", ApproachTime, train.Dot())
	}
	if checker.Holds(ctl.MustParse("AG (trainRole.far -> AF[1,10] trainRole.crossing)")) {
		t.Fatal("train must be able to stay far forever (announcing is a choice)")
	}
}

func TestGateControllersAreDeterministic(t *testing.T) {
	for _, comp := range []legacy.Component{SwiftGate(), SluggishGate(), StuckGate()} {
		comp.Reset()
		out, ok := comp.Step(automata.NewSignalSet(Approach))
		if !ok || !out.IsEmpty() {
			t.Fatalf("approach handling = %v/%v", out, ok)
		}
		// Unknown inputs are refused, empty steps accepted.
		if _, ok := comp.Step(automata.NewSignalSet(Approach, Passed)); ok {
			t.Fatal("combined input accepted")
		}
		if _, ok := comp.Step(automata.EmptySet); !ok {
			t.Fatal("idle refused")
		}
	}
}

func TestSwiftGateCloses(t *testing.T) {
	g := SwiftGate()
	g.Reset()
	g.Step(automata.NewSignalSet(Approach))
	names := []string{}
	for i := 0; i < 3; i++ {
		names = append(names, g.(legacy.Introspector).StateName())
		g.Step(automata.EmptySet)
	}
	if g.(legacy.Introspector).StateName() != "closed" {
		t.Fatalf("gate not closed after closing time; path %v, now %q",
			names, g.(legacy.Introspector).StateName())
	}
	// Reopens after the train passed.
	if _, ok := g.Step(automata.NewSignalSet(Passed)); !ok {
		t.Fatal("passed refused")
	}
	if g.(legacy.Introspector).StateName() != "open" {
		t.Fatal("gate did not reopen")
	}
}

func TestSwiftGateIntegrationProven(t *testing.T) {
	report, err := newSynth(t, SwiftGate(), Constraint()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != core.VerdictProven {
		t.Fatalf("verdict = %v/%v after %d iterations\n%s",
			report.Verdict, report.Kind, report.Stats.Iterations, report.WitnessText())
	}
	t.Logf("proven in %d iterations; learned %d states",
		report.Stats.Iterations, report.Model.Automaton().NumStates())
}

func TestSluggishGateViolatesConstraint(t *testing.T) {
	report, err := newSynth(t, SluggishGate(), Constraint()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != core.VerdictViolation || report.Kind != core.ViolationConstraint {
		t.Fatalf("verdict = %v/%v", report.Verdict, report.Kind)
	}
	// The witness shows the train on the crossing with the gate still
	// closing.
	if !strings.Contains(report.WitnessText(), "crossing") ||
		!strings.Contains(report.WitnessText(), "closing") {
		t.Fatalf("witness:\n%s", report.WitnessText())
	}
	// Run-witnessed propositional violation ⇒ final iteration needed no
	// test (fast conflict detection).
	last := report.Iterations[len(report.Iterations)-1]
	if last.Test != core.TestNotRun || !last.CexRunWitnessed {
		t.Fatalf("final iteration: test=%v runWitnessed=%v", last.Test, last.CexRunWitnessed)
	}
}

func TestStuckGateViolatesConstraint(t *testing.T) {
	report, err := newSynth(t, StuckGate(), Constraint()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != core.VerdictViolation || report.Kind != core.ViolationConstraint {
		t.Fatalf("verdict = %v/%v", report.Verdict, report.Kind)
	}
	if !strings.Contains(report.WitnessText(), "open") {
		t.Fatalf("witness should show the open gate:\n%s", report.WitnessText())
	}
}

func TestClosureDeadlineProvenForSwiftGate(t *testing.T) {
	report, err := newSynth(t, SwiftGate(), ctl.And(Constraint(), ClosureDeadline())).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != core.VerdictProven {
		t.Fatalf("verdict = %v/%v\n%s", report.Verdict, report.Kind, report.WitnessText())
	}
}

func TestVerdictsMatchGroundTruth(t *testing.T) {
	for name, comp := range map[string]legacy.Component{
		"swift": SwiftGate(), "sluggish": SluggishGate(), "stuck": StuckGate(),
	} {
		t.Run(name, func(t *testing.T) {
			report, err := newSynth(t, comp, Constraint()).Run()
			if err != nil {
				t.Fatal(err)
			}
			truth := core.ExploreComponent(comp, GateInterface(),
				automata.Universe(automata.UniverseSingleton),
				core.QualifiedLabeler(GateName), 64)
			sys, err := automata.Compose("truth", TrainRole(), truth)
			if err != nil {
				t.Fatal(err)
			}
			checker := ctl.NewChecker(sys)
			holds := checker.Holds(Constraint()) && checker.Holds(ctl.NoDeadlock())
			if holds != (report.Verdict == core.VerdictProven) {
				t.Fatalf("synthesis %v vs ground truth holds=%v", report.Verdict, holds)
			}
		})
	}
}
