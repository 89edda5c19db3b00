package ctl

import (
	"fmt"
	"slices"

	"muml/internal/automata"
)

// satEngine is the narrow evaluator view that counterexample and witness
// extraction need. Both the bitset Checker and the frozen legacy Reference
// implement it, so the extraction paths below are shared code: any verdict
// or witness difference between the two engines is attributable to the
// satisfaction sets alone.
type satEngine interface {
	Sat(Formula) []bool
	Automaton() *automata.Automaton
	canceled() bool
	search() *searchScratch
}

// searchScratch holds the counterexample search's per-state buffers. Each
// engine keeps one between calls, so a check allocates no per-state
// search state once the buffers have grown to the automaton's size.
type searchScratch struct {
	visited []bool
	parent  []parentEdge
	queue   []int32
}

// parentEdge is a search tree edge: the predecessor state and the index
// of the edge in the predecessor's adjacency row.
type parentEdge struct {
	from, edge int32
}

// reset sizes the buffers for n states and marks every state unvisited.
// Parents are written before they are read, so they are not cleared.
func (sc *searchScratch) reset(n int) {
	sc.visited = slices.Grow(sc.visited[:0], n)[:n]
	clear(sc.visited)
	sc.parent = slices.Grow(sc.parent[:0], n)[:n]
	sc.queue = sc.queue[:0]
}

// Result is the outcome of a verification request.
type Result struct {
	// Holds reports whether the formula held in every initial state.
	Holds bool
	// Counterexample is a witness run refuting the formula, when one could
	// be constructed (nil for satisfied formulas and for unsupported
	// formula shapes).
	Counterexample *automata.Run
	// EndsInDeadlock reports that the counterexample run's final state is
	// a deadlock state of the analyzed automaton.
	EndsInDeadlock bool
	// RunWitnessed reports that the counterexample run *by itself* proves
	// the violation: the violated (sub)formula at the end of the run is
	// propositional, so any system containing this run violates the
	// property. Violations of temporal subformulas (e.g. a bounded AF
	// failing because a path may stop early) additionally depend on which
	// continuations exist, so reproducing the run does not suffice —
	// crucial for the synthesis loop, where refusals of the closed model
	// copies are hypotheses until tested.
	RunWitnessed bool
	// Explanation describes why the final state of the counterexample
	// violates the property.
	Explanation string
}

// Check evaluates the formula over the automaton and, when it fails,
// attempts to construct a shortest counterexample run.
//
// Counterexamples are generated for the property shapes used by the
// synthesis loop and by Mechatronic UML pattern verification:
//
//   - conjunctions: the first failing conjunct is witnessed;
//   - AG f (including deadlock freedom AG ¬δ, invariants, and bounded
//     response AG(¬p ∨ AF[lo,hi] q)): a shortest path to a reachable state
//     violating f, extended with a violation suffix when f is temporal;
//   - AF / AF[lo,hi] / AX / AU at top level: a maximal path avoiding the
//     target.
//
// For other failing shapes Check reports Holds=false without a run.
func Check(a *automata.Automaton, f Formula) Result {
	return NewChecker(a).Check(f)
}

// Check is like the package-level Check but reuses the checker's caches.
func (c *Checker) Check(f Formula) Result {
	return checkOn(c, f)
}

// holdsOn reports whether the formula holds in every initial state,
// through the engine's Sat sets.
func holdsOn(e satEngine, f Formula) bool {
	sat := e.Sat(f)
	for _, q := range e.Automaton().Initial() {
		if !sat[q] {
			return false
		}
	}
	return true
}

// failingInitial returns an initial state violating the formula, if any.
func failingInitial(e satEngine, f Formula) (automata.StateID, bool) {
	sat := e.Sat(f)
	for _, q := range e.Automaton().Initial() {
		if !sat[q] {
			return q, true
		}
	}
	return automata.NoState, false
}

func checkOn(e satEngine, f Formula) Result {
	if holdsOn(e, f) {
		return Result{Holds: true}
	}
	res := Result{Holds: false}
	run, explanation, witnessed := counterexample(e, f)
	if run != nil {
		res.Counterexample = run
		res.Explanation = explanation
		res.RunWitnessed = witnessed
		last := run.States[len(run.States)-1]
		res.EndsInDeadlock = e.Automaton().IsDeadlock(last)
	}
	return res
}

// counterexample dispatches on the top-level formula shape. The third
// result reports whether the run alone witnesses the violation (see
// Result.RunWitnessed).
func counterexample(e satEngine, f Formula) (*automata.Run, string, bool) {
	switch node := f.(type) {
	case *andNode:
		if !holdsOn(e, node.l) {
			return counterexample(e, node.l)
		}
		return counterexample(e, node.r)
	case *agNode:
		if node.bound == nil {
			return agCounterexample(e, node.f)
		}
	case *afNode, *axNode, *auNode:
		// Fall through to path-based witness from a failing initial state.
	case *notNode:
		// ¬EF f at the top level behaves like AG ¬f.
		if ef, ok := node.f.(*efNode); ok && ef.bound == nil {
			return agCounterexample(e, Not(ef.f))
		}
	}
	// Generic: start at a failing initial state and extend with the local
	// violation suffix if the shape is supported.
	q, ok := failingInitial(e, f)
	if !ok {
		return nil, "", false
	}
	a := e.Automaton()
	run := &automata.Run{States: []automata.StateID{q}}
	if extendViolation(e, run, f) {
		return run, fmt.Sprintf("state %q violates %s", a.StateName(run.States[len(run.States)-1]), f), false
	}
	return run, fmt.Sprintf("initial state %q violates %s", a.StateName(q), f), isPropositional(f)
}

// isPropositional reports whether the formula contains no temporal
// operators and no deadlock symbol: its violation at a state is witnessed
// by the state's labels alone.
func isPropositional(f Formula) bool {
	switch n := f.(type) {
	case trueNode, falseNode, *atomNode:
		return true
	case *notNode:
		return isPropositional(n.f)
	case *andNode:
		return isPropositional(n.l) && isPropositional(n.r)
	case *orNode:
		return isPropositional(n.l) && isPropositional(n.r)
	case *impNode:
		return isPropositional(n.l) && isPropositional(n.r)
	default:
		// deadlockNode and all temporal operators.
		return false
	}
}

// agCounterexample finds a shortest path from a failing initial state to a
// reachable state violating f, then appends f's violation suffix: the
// first result of shortestViolations.
func agCounterexample(e satEngine, f Formula) (*automata.Run, string, bool) {
	vs := shortestViolations(e, f, 1)
	if len(vs) == 0 {
		return nil, "", false
	}
	v := vs[0]
	explanation := fmt.Sprintf("state %q violates %s", e.Automaton().StateName(v.target), f)
	if v.extended {
		explanation += " (witness extended)"
	}
	return v.run, explanation, isPropositional(f)
}

// violation is one result of shortestViolations: a shortest run to a
// reachable state violating f (the target), extended with f's violation
// suffix when extended is set.
type violation struct {
	run      *automata.Run
	target   automata.StateID
	extended bool
}

// shortestViolations runs one BFS from the initial states and returns
// shortest runs to up to max distinct reachable states violating f, in
// BFS order, each extended with f's violation suffix. A state's parent is
// the first edge in adjacency order that reached it. The search does not
// explore past a violating state, and it stops early when the engine's
// context is done. Its buffers are the engine's (see searchScratch).
func shortestViolations(e satEngine, f Formula, max int) []violation {
	sat := e.Sat(f)
	a := e.Automaton()
	sc := e.search()
	sc.reset(a.NumStates())
	queue := sc.queue
	for _, q := range a.Initial() {
		if !sc.visited[q] {
			sc.visited[q] = true
			sc.parent[q] = parentEdge{from: -1}
			queue = append(queue, int32(q))
		}
	}
	var found []violation
	for head := 0; head < len(queue) && len(found) < max && !e.canceled(); head++ {
		s := automata.StateID(queue[head])
		if !sat[s] {
			run := reconstructPath(a, s, sc.parent)
			found = append(found, violation{run: run, target: s, extended: extendViolation(e, run, f)})
			continue
		}
		for i, t := range a.TransitionsFrom(s) {
			if !sc.visited[t.To] {
				sc.visited[t.To] = true
				sc.parent[t.To] = parentEdge{from: int32(s), edge: int32(i)}
				queue = append(queue, int32(t.To))
			}
		}
	}
	sc.queue = queue
	return found
}

// reconstructPath returns the run along the search tree from an initial
// state to target, allocated at its exact length.
func reconstructPath(a *automata.Automaton, target automata.StateID, parent []parentEdge) *automata.Run {
	steps := 0
	for s := target; parent[s].from >= 0; s = automata.StateID(parent[s].from) {
		steps++
	}
	run := &automata.Run{States: make([]automata.StateID, steps+1)}
	if steps > 0 {
		run.Steps = make([]automata.Interaction, steps)
	}
	s := target
	for i := steps; i > 0; i-- {
		p := parent[s]
		run.States[i] = s
		run.Steps[i-1] = a.TransitionsFrom(automata.StateID(p.from))[p.edge].Label
		s = automata.StateID(p.from)
	}
	run.States[0] = s
	return run
}

// extendViolation appends, to a run ending in a state violating f, a path
// suffix witnessing the violation of f. Returns false when no extension is
// needed (propositional f) or the shape is unsupported.
func extendViolation(e satEngine, run *automata.Run, f Formula) bool {
	s := run.States[len(run.States)-1]
	switch node := f.(type) {
	case *orNode:
		// Both disjuncts fail; extend along whichever produces a suffix.
		if extendViolation(e, run, node.l) {
			return true
		}
		return extendViolation(e, run, node.r)
	case *andNode:
		if !e.Sat(node.l)[s] {
			return extendViolation(e, run, node.l)
		}
		return extendViolation(e, run, node.r)
	case *impNode:
		// l → r fails: l holds, r fails.
		return extendViolation(e, run, node.r)
	case *axNode:
		inner := e.Sat(node.f)
		for _, t := range e.Automaton().TransitionsFrom(s) {
			if !inner[t.To] {
				run.Steps = append(run.Steps, t.Label)
				run.States = append(run.States, t.To)
				extendViolation(e, run, node.f)
				return true
			}
		}
		return false
	case *afNode:
		if node.bound != nil {
			return extendBoundedAFViolation(e, run, node)
		}
		return extendAFViolation(e, run, node.f)
	case *auNode:
		// A violation of A[l U r] is a maximal path where r never holds
		// (possibly leaving l); approximate with the AF suffix for r.
		return extendAFViolation(e, run, node.r)
	default:
		return false
	}
}

// extendAFViolation extends the run along states violating AF f: follow
// successors that still violate AF f until a cycle or deadlock is reached.
func extendAFViolation(e satEngine, run *automata.Run, f Formula) bool {
	af := e.Sat(AF(f))
	a := e.Automaton()
	s := run.States[len(run.States)-1]
	onPath := map[automata.StateID]bool{s: true}
	extended := false
	for {
		if a.IsDeadlock(s) {
			return extended
		}
		advanced := false
		var fallback *automata.Transition
		for _, t := range a.TransitionsFrom(s) {
			if af[t.To] {
				continue
			}
			if onPath[t.To] {
				tt := t
				fallback = &tt
				continue
			}
			run.Steps = append(run.Steps, t.Label)
			run.States = append(run.States, t.To)
			onPath[t.To] = true
			s = t.To
			extended, advanced = true, true
			break
		}
		if !advanced {
			if fallback != nil {
				// Close the lasso loop once.
				run.Steps = append(run.Steps, fallback.Label)
				run.States = append(run.States, fallback.To)
				return true
			}
			return extended
		}
	}
}

// extendBoundedAFViolation extends the run with a path of at most bound.Hi
// steps along which f is never satisfied inside the window.
func extendBoundedAFViolation(e satEngine, run *automata.Run, node *afNode) bool {
	b := *node.bound
	fSat := e.Sat(node.f)
	a := e.Automaton()
	// Recompute the layered ok(·, j) table to follow a failing path.
	layers := make([][]bool, b.Hi+2)
	layers[b.Hi+1] = make([]bool, a.NumStates())
	for j := b.Hi; j >= 0; j-- {
		layer := make([]bool, a.NumStates())
		for i := range layer {
			s := automata.StateID(i)
			if j >= b.Lo && fSat[i] {
				layer[i] = true
				continue
			}
			if j < b.Hi && !a.IsDeadlock(s) {
				all := true
				for _, t := range a.TransitionsFrom(s) {
					if !layers[j+1][t.To] {
						all = false
						break
					}
				}
				layer[i] = all
			}
		}
		layers[j] = layer
	}
	s := run.States[len(run.States)-1]
	if layers[0][s] {
		return false // not actually violating
	}
	extended := false
	for j := 0; j < b.Hi; j++ {
		if a.IsDeadlock(s) {
			return extended
		}
		moved := false
		for _, t := range a.TransitionsFrom(s) {
			if !layers[j+1][t.To] {
				run.Steps = append(run.Steps, t.Label)
				run.States = append(run.States, t.To)
				s = t.To
				extended, moved = true, true
				break
			}
		}
		if !moved {
			return extended
		}
	}
	return extended
}
