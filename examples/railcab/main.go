// RailCab walkthrough: the paper's complete running example. Three
// hand-written legacy rear-shuttle controllers are integrated against the
// frontRole context of Fig. 5 using the iterative verification+testing
// loop; the output reproduces the storyline of Figs. 4-7 and Listings
// 1.1-1.5.
//
// Run with:
//
//	go run ./examples/railcab
package main

import (
	"fmt"
	"os"

	"muml/internal/core"
	"muml/internal/legacy"
	"muml/internal/railcab"
	"muml/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// First verify the DistanceCoordination pattern itself (Fig. 1): the
	// roles, the constraint, and deadlock freedom.
	fmt.Println("== DistanceCoordination pattern (Fig. 1) ==")
	verification, err := railcab.Pattern().Verify()
	if err != nil {
		return err
	}
	fmt.Printf("pattern verified: %v (composed system: %d states)\n\n",
		verification.Satisfied, verification.System.NumStates())

	scenarios := []struct {
		name  string
		comp  legacy.Component
		story string
	}{
		{
			name: "correct shuttle",
			comp: &railcab.CorrectShuttle{},
			story: "follows the protocol — the loop learns the relevant behavior\n" +
				"and terminates with a PROOF of correct integration (Fig. 7)",
		},
		{
			name: "eager shuttle",
			comp: &railcab.EagerShuttle{},
			story: "enters convoy mode right after proposing — the constraint is\n" +
				"violated inside learned behavior: real conflict without a further\n" +
				"test (Fig. 6, Listing 1.4)",
		},
		{
			name: "blocking shuttle",
			comp: &railcab.BlockingShuttle{},
			story: "shuts down after requesting to break the convoy — a real\n" +
				"deadlock, confirmed by probing the context's offers (Listings 1.2/1.3)",
		},
	}

	for _, sc := range scenarios {
		fmt.Printf("== %s ==\n%s\n\n", sc.name, sc.story)
		synth, err := core.New(railcab.FrontRole(), sc.comp,
			railcab.RearInterface(railcab.RearRoleName),
			core.Options{Property: railcab.Constraint()})
		if err != nil {
			return err
		}
		report, err := synth.Run()
		if err != nil {
			return err
		}
		for _, it := range report.Iterations {
			status := "check failed"
			if it.Counterexample == nil {
				status = "both checks passed"
			}
			fmt.Printf("iteration %d: %s; test=%v; learned +%d states +%d transitions +%d refusals\n",
				it.Index, status, it.Test, it.Delta.States, it.Delta.Transitions, it.Delta.Blocked)
		}
		fmt.Printf("\nverdict: %v", report.Verdict)
		if report.Verdict == core.VerdictViolation {
			fmt.Printf(" — %v\nwitness (paper listing notation):\n%s", report.Kind, report.WitnessText())
		}
		fmt.Printf("\nfinal learned model:\n%s\n", trace.RenderModel(report.Model))
	}

	fmt.Println("== why the constraint matters: emergency braking (kinematics) ==")
	for _, row := range railcab.ModeTable(railcab.DefaultDynamics()) {
		fmt.Println(row)
	}
	return nil
}
