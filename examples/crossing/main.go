// Rail-crossing walkthrough: the timed case study. A train that cannot
// stop announces its approach and reaches the crossing exactly four time
// units later; a legacy gate controller must have the gate closed by then.
// The synthesis loop proves the fast controller safe and convicts the
// sluggish and stuck ones with real counterexamples — including the timed
// closure deadline expressed in CCTL.
//
// Run with:
//
//	go run ./examples/crossing
package main

import (
	"fmt"
	"os"

	"muml/internal/core"
	"muml/internal/crossing"
	"muml/internal/ctl"
	"muml/internal/legacy"
	"muml/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Printf("train reaches the crossing exactly %d time units after announcing\n", crossing.ApproachTime)
	fmt.Printf("safety constraint: %s\n", crossing.Constraint())
	fmt.Printf("closure deadline:  %s\n\n", crossing.ClosureDeadline())

	scenarios := []struct {
		name string
		comp legacy.Component
	}{
		{"swift gate (closes in 2)", crossing.SwiftGate()},
		{"sluggish gate (closes in 6)", crossing.SluggishGate()},
		{"stuck gate (never closes)", crossing.StuckGate()},
	}
	for _, sc := range scenarios {
		fmt.Printf("== %s ==\n", sc.name)
		synth, err := core.New(crossing.TrainRole(), sc.comp, crossing.GateInterface(),
			core.Options{Property: ctl.And(crossing.Constraint(), crossing.ClosureDeadline())})
		if err != nil {
			return err
		}
		report, err := synth.Run()
		if err != nil {
			return err
		}
		fmt.Printf("verdict: %v", report.Verdict)
		if report.Verdict == core.VerdictViolation {
			fmt.Printf(" (%v)\nwitness:\n%s", report.Kind, report.WitnessText())
		}
		fmt.Printf("\nlearned gate model (%d iterations):\n%s\n",
			report.Stats.Iterations, trace.RenderModel(report.Model))
	}
	return nil
}
