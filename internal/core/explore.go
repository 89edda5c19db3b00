package core

import (
	"fmt"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// ExploreComponent exhaustively explores a deterministic component by
// breadth-first search over its reachable states, returning its full
// behavior automaton. Every probe is a fresh reset-and-replay execution,
// so only the Component interface (plus introspection for state names) is
// required.
//
// This is NOT part of the synthesis approach — the whole point of the
// paper is to avoid exhaustive exploration. It exists as the ground-truth
// oracle for evaluation (checking that verdicts are never false, measuring
// how much behavior the context-guided loop did not need to learn) and as
// the target for the L* baseline comparison.
//
// maxStates bounds the exploration; exceeding it panics, as that indicates
// a misconfigured experiment rather than a runtime condition.
func ExploreComponent(
	comp legacy.Component,
	iface legacy.Interface,
	universe automata.InteractionUniverse,
	labeler func(string) []automata.Proposition,
	maxStates int,
) *automata.Automaton {
	inputs := automata.CompileUniverse(universe, iface.Inputs, iface.Outputs).InputSets()
	a := automata.New(iface.Name, iface.Inputs, iface.Outputs)

	type node struct {
		name string
		path []automata.SignalSet
	}
	initName := legacy.InitialStateName(comp)
	var initLabels []automata.Proposition
	if labeler != nil {
		initLabels = labeler(initName)
	}
	init := a.MustAddState(initName, initLabels...)
	a.MarkInitial(init)

	queue := []node{{name: initName}}
	visited := map[string]bool{initName: true}

	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		from := a.State(cur.name)
		for _, in := range inputs {
			out, after, ok := probePath(comp, cur.path, in)
			if !ok {
				continue
			}
			to := a.State(after)
			if to == automata.NoState {
				if a.NumStates() >= maxStates {
					panic(fmt.Sprintf("core: ExploreComponent exceeded %d states", maxStates))
				}
				var labels []automata.Proposition
				if labeler != nil {
					labels = labeler(after)
				}
				to = a.MustAddState(after, labels...)
			}
			label := automata.Interaction{In: in, Out: out}
			if len(a.Successors(from, label)) == 0 {
				a.MustAddTransition(from, label, to)
			}
			if !visited[after] {
				visited[after] = true
				path := make([]automata.SignalSet, 0, len(cur.path)+1)
				path = append(path, cur.path...)
				path = append(path, in)
				queue = append(queue, node{name: after, path: path})
			}
		}
	}
	return a
}

// probePath resets the component, replays the input path, and performs one
// probe step.
func probePath(comp legacy.Component, path []automata.SignalSet, in automata.SignalSet) (automata.SignalSet, string, bool) {
	comp.Reset()
	for _, step := range path {
		if _, ok := comp.Step(step); !ok {
			return automata.EmptySet, "", false
		}
	}
	out, ok := comp.Step(in)
	if !ok {
		return automata.EmptySet, "", false
	}
	name := "s0"
	if intro, isIntro := comp.(legacy.Introspector); isIntro {
		name = intro.StateName()
	}
	return out, name, true
}
