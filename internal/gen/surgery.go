package gen

import (
	"muml/internal/automata"
)

// This file provides the automaton surgery the shrinker (internal/mbt)
// applies to failing instances: structure-preserving copies with one
// state, one transition, or one signal removed. Every operation returns a
// fresh automaton (inputs are never mutated) or nil when the removal would
// produce a structurally invalid automaton (no states or no initial
// state). Removal cannot break function-determinism, so results remain
// wrappable as components whenever the original was.

// DropState returns a copy of a without the given state and without every
// transition touching it. It returns nil if the state is the last one or
// the last initial state.
func DropState(a *automata.Automaton, victim automata.StateID) *automata.Automaton {
	if a.NumStates() <= 1 {
		return nil
	}
	b := automata.New(a.Name(), a.Inputs(), a.Outputs())
	mapping := make([]automata.StateID, a.NumStates())
	for i := 0; i < a.NumStates(); i++ {
		id := automata.StateID(i)
		if id == victim {
			mapping[i] = automata.NoState
			continue
		}
		mapping[i] = b.MustAddState(a.StateName(id), a.Labels(id)...)
	}
	for s := 0; s < a.NumStates(); s++ {
		for _, t := range a.TransitionsFrom(automata.StateID(s)) {
			if mapping[t.From] == automata.NoState || mapping[t.To] == automata.NoState {
				continue
			}
			b.MustAddTransition(mapping[t.From], t.Label, mapping[t.To])
		}
	}
	initials := 0
	for _, q := range a.Initial() {
		if mapping[q] != automata.NoState {
			b.MarkInitial(mapping[q])
			initials++
		}
	}
	if initials == 0 {
		return nil
	}
	return b
}

// DropTransition returns a copy of a without the index-th transition of
// a.Transitions().
func DropTransition(a *automata.Automaton, index int) *automata.Automaton {
	b := automata.New(a.Name(), a.Inputs(), a.Outputs())
	for i := 0; i < a.NumStates(); i++ {
		id := automata.StateID(i)
		b.MustAddState(a.StateName(id), a.Labels(id)...)
	}
	k := 0 // the index of t in a.Transitions()
	for s := 0; s < a.NumStates(); s++ {
		for _, t := range a.TransitionsFrom(automata.StateID(s)) {
			if k != index {
				b.MustAddTransition(t.From, t.Label, t.To)
			}
			k++
		}
	}
	for _, q := range a.Initial() {
		b.MarkInitial(q)
	}
	return b
}

// DropSignal returns a copy of a with the signal removed from both
// alphabets and every transition whose label uses it dropped.
func DropSignal(a *automata.Automaton, sig automata.Signal) *automata.Automaton {
	strip := func(set automata.SignalSet) automata.SignalSet {
		return set.Minus(automata.NewSignalSet(sig))
	}
	b := automata.New(a.Name(), strip(a.Inputs()), strip(a.Outputs()))
	for i := 0; i < a.NumStates(); i++ {
		id := automata.StateID(i)
		b.MustAddState(a.StateName(id), a.Labels(id)...)
	}
	for s := 0; s < a.NumStates(); s++ {
		for _, t := range a.TransitionsFrom(automata.StateID(s)) {
			if t.Label.In.Contains(sig) || t.Label.Out.Contains(sig) {
				continue
			}
			b.MustAddTransition(t.From, t.Label, t.To)
		}
	}
	for _, q := range a.Initial() {
		b.MarkInitial(q)
	}
	return b
}
