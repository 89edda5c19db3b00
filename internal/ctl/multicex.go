package ctl

import "muml/internal/automata"

// CheckMany evaluates the formula and, when it fails, returns up to max
// *distinct* counterexamples — shortest paths to distinct violating
// states. The paper's conclusion (§7) names exactly this as an
// optimization opportunity: "the interplay between the formal verification
// and the test could be improved when a number of counterexamples instead
// [of] only a single one could be derived from the model checker."
//
// Supported shapes are those of Check's counterexample generation; for
// other failing shapes at most the single Check counterexample is
// returned. Results share the semantics of Check (RunWitnessed etc.).
func (c *Checker) CheckMany(f Formula, max int) []Result {
	return checkManyOn(c, f, max)
}

func checkManyOn(e satEngine, f Formula, max int) []Result {
	if max < 1 {
		max = 1
	}
	if holdsOn(e, f) {
		return []Result{{Holds: true}}
	}
	inner, ok := topLevelAG(f, func(g Formula) bool { return holdsOn(e, g) })
	if !ok {
		return []Result{checkOn(e, f)}
	}

	// One BFS, collecting shortest paths to up to max distinct violating
	// states.
	a := e.Automaton()
	witnessed := isPropositional(inner)
	var results []Result
	for _, v := range shortestViolations(e, inner, max) {
		last := v.run.States[len(v.run.States)-1]
		results = append(results, Result{
			Holds:          false,
			Counterexample: v.run,
			RunWitnessed:   witnessed,
			EndsInDeadlock: a.IsDeadlock(last),
		})
	}
	if len(results) == 0 {
		return []Result{checkOn(e, f)}
	}
	return results
}

// topLevelAG unwraps the shapes CheckMany handles into the inner AG body:
// AG f, ¬EF f, and failing conjuncts of conjunctions.
func topLevelAG(f Formula, holds func(Formula) bool) (Formula, bool) {
	switch node := f.(type) {
	case *agNode:
		if node.bound == nil {
			return node.f, true
		}
	case *notNode:
		if ef, ok := node.f.(*efNode); ok && ef.bound == nil {
			return Not(ef.f), true
		}
	case *andNode:
		if !holds(node.l) {
			return topLevelAG(node.l, holds)
		}
		return topLevelAG(node.r, holds)
	}
	return nil, false
}

func reconstructPath(target automata.StateID, parent []automata.Transition) *automata.Run {
	var rev []automata.Transition
	for s := target; parent[s].From != automata.NoState; s = parent[s].From {
		rev = append(rev, parent[s])
	}
	run := &automata.Run{}
	start := target
	if len(rev) > 0 {
		start = rev[len(rev)-1].From
	}
	run.States = append(run.States, start)
	for i := len(rev) - 1; i >= 0; i-- {
		run.Steps = append(run.Steps, rev[i].Label)
		run.States = append(run.States, rev[i].To)
	}
	return run
}
