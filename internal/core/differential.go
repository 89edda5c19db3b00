package core

import (
	"fmt"

	"muml/internal/automata"
)

// EquivalentReports checks that two synthesis runs followed the same
// trajectory: same verdict, same iteration count, and per iteration the
// same check outcomes, counterexamples, test outcomes, learned deltas, and
// system sizes. Used by the differential tests to assert that the
// incremental (patched) pipeline is observationally identical to the
// from-scratch one; construction-strategy fields (Patched, durations,
// patch/rebuild stats) are deliberately not compared.
func EquivalentReports(got, want *Report) error {
	if got.Verdict != want.Verdict || got.Kind != want.Kind {
		return fmt.Errorf("verdict %v/%v, want %v/%v", got.Verdict, got.Kind, want.Verdict, want.Kind)
	}
	if g, w := got.WitnessText(), want.WitnessText(); g != w {
		return fmt.Errorf("witness differs:\n--- got\n%s\n--- want\n%s", g, w)
	}
	if len(got.Iterations) != len(want.Iterations) {
		return fmt.Errorf("%d iterations, want %d", len(got.Iterations), len(want.Iterations))
	}
	for i := range want.Iterations {
		g, w := &got.Iterations[i], &want.Iterations[i]
		if g.ModelStates != w.ModelStates || g.ModelTransitions != w.ModelTransitions || g.ModelBlocked != w.ModelBlocked {
			return fmt.Errorf("iteration %d: model size (%d,%d,%d), want (%d,%d,%d)", i,
				g.ModelStates, g.ModelTransitions, g.ModelBlocked,
				w.ModelStates, w.ModelTransitions, w.ModelBlocked)
		}
		if g.ClosureStates != w.ClosureStates || g.SystemStates != w.SystemStates {
			return fmt.Errorf("iteration %d: closure/system sizes (%d,%d), want (%d,%d)", i,
				g.ClosureStates, g.SystemStates, w.ClosureStates, w.SystemStates)
		}
		if g.PropertyHolds != w.PropertyHolds || g.DeadlockFree != w.DeadlockFree {
			return fmt.Errorf("iteration %d: checks (%v,%v), want (%v,%v)", i,
				g.PropertyHolds, g.DeadlockFree, w.PropertyHolds, w.DeadlockFree)
		}
		if gt, wt := g.CounterexampleText(), w.CounterexampleText(); gt != wt {
			return fmt.Errorf("iteration %d: counterexample differs:\n--- got\n%s\n--- want\n%s",
				i, gt, wt)
		}
		if g.CexInLearnedPart != w.CexInLearnedPart || g.CexRunWitnessed != w.CexRunWitnessed {
			return fmt.Errorf("iteration %d: counterexample classification (%v,%v), want (%v,%v)", i,
				g.CexInLearnedPart, g.CexRunWitnessed, w.CexInLearnedPart, w.CexRunWitnessed)
		}
		if g.Test != w.Test {
			return fmt.Errorf("iteration %d: test outcome %v, want %v", i, g.Test, w.Test)
		}
		if gd, wd := deltaSize(g.Delta), deltaSize(w.Delta); gd != wd {
			return fmt.Errorf("iteration %d: delta (states, transitions, refusals, settled) %v, want %v", i, gd, wd)
		}
		if len(g.Probes) != len(w.Probes) {
			return fmt.Errorf("iteration %d: %d probes, want %d", i, len(g.Probes), len(w.Probes))
		}
	}
	// Stats is summed from the iterations compared above, but for its
	// direct counts.
	if g, w := got.Stats.TestsRun, want.Stats.TestsRun; g != w {
		return fmt.Errorf("%d tests run, want %d", g, w)
	}
	return nil
}

// deltaSize counts what a learn delta added: states, transitions, refusals
// and settled labels.
func deltaSize(d automata.LearnDelta) [4]int {
	return [4]int{len(d.NewStates), len(d.NewTransitions), len(d.NewBlocked), len(d.NewSettled)}
}
