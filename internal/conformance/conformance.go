// Package conformance implements conformance testing for
// function-deterministic reactive machines: characterization sets, state
// and transition covers, the Vasilevskii/Chow W-method test suite, and
// exact equivalence checking.
//
// Section 6 of the paper discusses conformance testing as the standard way
// to realize the equivalence oracle of regular inference: per Vasilevskii,
// a complete suite has total length O(k²·l·|Σ|^(l−k+1)) where k is the
// hypothesis size and l the bound on the implementation size — exponential
// in l−k. The paper's approach avoids the equivalence oracle altogether;
// this package provides the baseline against which that saving is
// measured (experiments E8/E9).
//
// Machines are automata.Automaton values that are function-deterministic:
// at most one transition per (state, input set), with the output set a
// function of the input. Inputs not accepted in a state are refusals,
// observable as a distinguished ⊥ output after which the machine is
// considered stuck.
package conformance

import (
	"fmt"
	"strconv"
	"strings"

	"muml/internal/automata"
)

// Word is a sequence of input sets fed to a machine, one per time unit.
type Word []automata.SignalSet

// Key renders the word canonically for dedup maps. The length prefix
// keeps words of different lengths distinct even when they consist of
// empty input sets (whose set keys are empty strings).
func (w Word) Key() string {
	parts := make([]string, len(w)+1)
	parts[0] = strconv.Itoa(len(w))
	for i, in := range w {
		parts[i+1] = in.Key()
	}
	return strings.Join(parts, "|")
}

// Concat returns the concatenation of words.
func Concat(words ...Word) Word {
	var out Word
	for _, w := range words {
		out = append(out, w...)
	}
	return out
}

// Bottom is the observable output of a refused input; after a refusal the
// machine is treated as stuck and produces Bottom forever.
const Bottom = "⊥"

// OutputsFrom runs the word on the machine starting at the given state and
// returns the output keys, with Bottom from the first refusal onward.
func OutputsFrom(a *automata.Automaton, from automata.StateID, w Word) []string {
	outs := make([]string, len(w))
	cur := from
	stuck := false
	for i, in := range w {
		if stuck {
			outs[i] = Bottom
			continue
		}
		step, ok := stepDeterministic(a, cur, in)
		if !ok {
			outs[i] = Bottom
			stuck = true
			continue
		}
		outs[i] = step.Label.Out.Key()
		cur = step.To
	}
	return outs
}

// Outputs runs the word from the machine's single initial state.
func Outputs(a *automata.Automaton, w Word) []string {
	return OutputsFrom(a, a.Initial()[0], w)
}

func stepDeterministic(a *automata.Automaton, s automata.StateID, in automata.SignalSet) (automata.Transition, bool) {
	for _, t := range a.TransitionsFrom(s) {
		if t.Label.In.Equal(in) {
			return t, true
		}
	}
	return automata.Transition{}, false
}

// ValidateMachine checks the function-determinism requirement.
func ValidateMachine(a *automata.Automaton) error {
	if len(a.Initial()) != 1 {
		return fmt.Errorf("conformance: %q must have exactly one initial state", a.Name())
	}
	for i := 0; i < a.NumStates(); i++ {
		seen := make(map[string]struct{})
		for _, t := range a.TransitionsFrom(automata.StateID(i)) {
			key := t.Label.In.Key()
			if _, dup := seen[key]; dup {
				return fmt.Errorf("conformance: %q not function-deterministic at %q",
					a.Name(), a.StateName(automata.StateID(i)))
			}
			seen[key] = struct{}{}
		}
	}
	return nil
}

// InputAlphabet returns the distinct input sets of the universe over the
// machine's alphabets.
func InputAlphabet(a *automata.Automaton, universe automata.InteractionUniverse) []automata.SignalSet {
	return automata.CompileUniverse(universe, a.Inputs(), a.Outputs()).InputSets()
}

// StateCover returns, for every reachable state, a shortest access word
// from the initial state (the P set). The initial state's word is ε.
func StateCover(a *automata.Automaton, alphabet []automata.SignalSet) map[automata.StateID]Word {
	cover := make(map[automata.StateID]Word)
	init := a.Initial()[0]
	cover[init] = Word{}
	queue := []automata.StateID{init}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, in := range alphabet {
			t, ok := stepDeterministic(a, s, in)
			if !ok {
				continue
			}
			if _, seen := cover[t.To]; seen {
				continue
			}
			access := make(Word, 0, len(cover[s])+1)
			access = append(access, cover[s]...)
			access = append(access, in)
			cover[t.To] = access
			queue = append(queue, t.To)
		}
	}
	return cover
}

// CharacterizationSet computes a W set: a set of words such that any two
// distinct reachable states produce different output sequences on at least
// one word. Words are found by BFS over state pairs (shortest
// distinguishing suffixes). Machines whose states are pairwise
// indistinguishable (e.g. single-state machines) yield a singleton set
// containing one alphabet letter, so suites still exercise outputs.
func CharacterizationSet(a *automata.Automaton, alphabet []automata.SignalSet) []Word {
	if err := ValidateMachine(a); err != nil {
		panic(err)
	}
	var words []Word
	seen := make(map[string]struct{})
	add := func(w Word) {
		key := w.Key()
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		words = append(words, w)
	}

	reachable := a.Reachable()
	var states []automata.StateID
	for i := 0; i < a.NumStates(); i++ {
		if reachable[i] {
			states = append(states, automata.StateID(i))
		}
	}
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			if w, ok := distinguishingWord(a, states[i], states[j], alphabet); ok {
				add(w)
			}
		}
	}
	if len(words) == 0 && len(alphabet) > 0 {
		add(Word{alphabet[0]})
	}
	return words
}

// distinguishingWord finds a shortest word on which the two states produce
// different outputs (including refusal differences), via BFS over pairs.
func distinguishingWord(a *automata.Automaton, s, t automata.StateID, alphabet []automata.SignalSet) (Word, bool) {
	type pair struct{ s, t automata.StateID }
	type entry struct {
		p pair
		w Word
	}
	visited := map[pair]struct{}{{s, t}: {}}
	queue := []entry{{p: pair{s, t}}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, in := range alphabet {
			ts, okS := stepDeterministic(a, cur.p.s, in)
			tt, okT := stepDeterministic(a, cur.p.t, in)
			w := append(append(Word{}, cur.w...), in)
			if okS != okT {
				return w, true
			}
			if !okS {
				continue
			}
			if !ts.Label.Out.Equal(tt.Label.Out) {
				return w, true
			}
			next := pair{ts.To, tt.To}
			if next.s == next.t {
				continue
			}
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = struct{}{}
			queue = append(queue, entry{p: next, w: w})
		}
	}
	return nil, false
}

// Suite generates the W-method conformance test suite for the hypothesis
// machine, valid against any implementation with at most maxStates states:
//
//	T = P · Σ^{≤ maxStates − n + 1} · W
//
// where P is the state cover, n the hypothesis size, and W the
// characterization set. The suite's total symbol length follows the
// Vasilevskii bound and grows as |Σ|^{maxStates−n+1}.
func Suite(hypothesis *automata.Automaton, alphabet []automata.SignalSet, maxStates int) ([]Word, error) {
	if err := ValidateMachine(hypothesis); err != nil {
		return nil, err
	}
	cover := StateCover(hypothesis, alphabet)
	n := len(cover)
	extra := maxStates - n
	if extra < 0 {
		extra = 0
	}
	w := CharacterizationSet(hypothesis, alphabet)

	// Middle parts: Σ^1 ∪ ... ∪ Σ^{extra+1}.
	middles := []Word{{}}
	var layered []Word
	current := []Word{{}}
	for depth := 0; depth <= extra; depth++ {
		var next []Word
		for _, m := range current {
			for _, in := range alphabet {
				next = append(next, append(append(Word{}, m...), in))
			}
		}
		layered = append(layered, next...)
		current = next
	}
	middles = append(middles, layered...)

	seen := make(map[string]struct{})
	var suite []Word
	for _, access := range cover {
		for _, mid := range middles {
			for _, suffix := range w {
				word := Concat(access, mid, suffix)
				if len(word) == 0 {
					continue
				}
				key := word.Key()
				if _, ok := seen[key]; ok {
					continue
				}
				seen[key] = struct{}{}
				suite = append(suite, word)
			}
		}
	}
	return suite, nil
}

// SuiteCost summarizes a suite for the Vasilevskii-bound experiment.
type SuiteCost struct {
	Words        int
	TotalSymbols int
}

// Cost measures a suite.
func Cost(suite []Word) SuiteCost {
	c := SuiteCost{Words: len(suite)}
	for _, w := range suite {
		c.TotalSymbols += len(w)
	}
	return c
}

// Equivalent checks exact equivalence of two function-deterministic
// machines over the alphabet (same outputs, same refusals, on every input
// word), returning a shortest distinguishing word when they differ.
func Equivalent(a, b *automata.Automaton, alphabet []automata.SignalSet) (bool, Word, error) {
	if err := ValidateMachine(a); err != nil {
		return false, nil, err
	}
	if err := ValidateMachine(b); err != nil {
		return false, nil, err
	}
	type pair struct{ s, t automata.StateID }
	start := pair{a.Initial()[0], b.Initial()[0]}
	visited := map[pair]struct{}{start: {}}
	type entry struct {
		p pair
		w Word
	}
	queue := []entry{{p: start}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, in := range alphabet {
			ta, okA := stepDeterministic(a, cur.p.s, in)
			tb, okB := stepDeterministic(b, cur.p.t, in)
			w := append(append(Word{}, cur.w...), in)
			if okA != okB {
				return false, w, nil
			}
			if !okA {
				continue
			}
			if !ta.Label.Out.Equal(tb.Label.Out) {
				return false, w, nil
			}
			next := pair{ta.To, tb.To}
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = struct{}{}
			queue = append(queue, entry{p: next, w: w})
		}
	}
	return true, nil, nil
}
