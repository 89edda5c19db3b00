package automata

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file implements the refinement preorder ⊑ of Definition 4:
// M ⊑ M' iff
//
//	(1) every run of M has a run of M' with the same observable trace and
//	    the same labeling on the final state, and
//	(2) every deadlock run of M (a run ending in an interaction refused by
//	    the final state) is matched by a deadlock run of M' with the same
//	    trace refusing the same interaction.
//
// Refinement implies simulation and additionally preserves deadlock
// freedom (Lemma 1) and compositional constraints (Section 2.4).
//
// Two checks are provided:
//
//   - Simulates: a polynomial-time greatest-fixpoint check computing a
//     ready-simulation-style relation. It is sound (Simulates ⇒ ⊑) but
//     incomplete for nondeterministic specifications.
//   - Refines: an exact decision procedure via subset construction over
//     the specification, tracking for every implementation state reachable
//     by a trace the full set of specification states reachable by the
//     same trace. Worst-case exponential in |S'|, fine for model sizes in
//     this domain.

// Simulates reports whether a relation R ⊆ S×S' exists such that related
// states have equal labels, every transition of impl is matched by spec
// from a related state, refusals of impl states are included in the
// refusals of the related spec state, and every initial state of impl is
// related to an initial state of spec. This is sufficient for impl ⊑ spec.
func Simulates(impl, spec *Automaton) bool {
	n, m := impl.NumStates(), spec.NumStates()
	rel := make([]bool, n*m)
	// Initialize with label equality and refusal inclusion. Refusal
	// inclusion relative to a shared interaction universe is equivalent to
	// enabled(spec) ⊆ enabled(impl).
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			rel[i*m+j] = labelsMatch(impl.Labels(StateID(i)), spec.Labels(StateID(j))) &&
				enabledSubset(spec, StateID(j), impl, StateID(i))
		}
	}
	// Greatest fixpoint: remove pairs whose transitions cannot be matched.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !rel[i*m+j] {
					continue
				}
				if !matchesAllTransitions(impl, StateID(i), spec, StateID(j), rel, m) {
					rel[i*m+j] = false
					changed = true
				}
			}
		}
	}
	for _, qi := range impl.Initial() {
		found := false
		for _, qj := range spec.Initial() {
			if rel[int(qi)*m+int(qj)] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func matchesAllTransitions(impl *Automaton, i StateID, spec *Automaton, j StateID, rel []bool, m int) bool {
	for _, t := range impl.TransitionsFrom(i) {
		matched := false
		for _, u := range spec.TransitionsFrom(j) {
			if u.Label.Equal(t.Label) && rel[int(t.To)*m+int(u.To)] {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// enabledSubset reports whether every interaction enabled at (a, sa) is
// enabled at (b, sb).
func enabledSubset(a *Automaton, sa StateID, b *Automaton, sb StateID) bool {
	enabled := make(map[string]struct{})
	for _, t := range b.TransitionsFrom(sb) {
		enabled[t.Label.Key()] = struct{}{}
	}
	for _, t := range a.TransitionsFrom(sa) {
		if _, ok := enabled[t.Label.Key()]; !ok {
			return false
		}
	}
	return true
}

// Refines decides impl ⊑ spec exactly. It explores pairs (s, U) where s is
// an implementation state reachable by some trace w and U is the set of
// specification states reachable by the same trace. For every such pair:
//
//   - condition (1) requires some s' ∈ U with L(s) = L'(s');
//   - condition (2) requires every interaction refused by s to be refused
//     by some s' ∈ U, which (per-interaction witnesses may differ) is
//     equivalent to ⋂_{s'∈U} enabled(s') ⊆ enabled(s).
//
// If the check fails, a counterexample trace is returned. Enabled sets are
// compared on interned labels, so the combined alphabet must fit an
// Interner; a wider one is an error wrapping ErrAlphabetTooWide.
func Refines(impl, spec *Automaton) (bool, []Interaction, error) {
	if impl.NumStates() == 0 || spec.NumStates() == 0 {
		return false, nil, fmt.Errorf("automata: refinement over empty automaton")
	}
	intern, err := NewInterner(impl.inputs, impl.outputs, spec.inputs, spec.outputs)
	if err != nil {
		return false, nil, fmt.Errorf("automata: refinement %q ⊑ %q: %w", impl.name, spec.name, err)
	}
	type entry struct {
		states []StateID
		trace  []Interaction
	}
	specInit := normalizeStates(spec.Initial())
	// visited holds the key of every explored pair (s, U): s, then U.
	visited := make(map[string]struct{})
	var key []byte
	queue := make([]struct {
		s StateID
		e entry
	}, 0, len(impl.Initial()))
	for _, q := range impl.Initial() {
		queue = append(queue, struct {
			s StateID
			e entry
		}{q, entry{states: specInit}})
	}

	check := func(s StateID, u []StateID, trace []Interaction) (bool, []Interaction) {
		if len(u) == 0 {
			return false, trace
		}
		labelOK := false
		for _, sp := range u {
			if labelsMatch(impl.Labels(s), spec.Labels(sp)) {
				labelOK = true
				break
			}
		}
		if !labelOK {
			return false, trace
		}
		if !refusalInclusion(intern, impl, spec, s, u) {
			return false, trace
		}
		return true, nil
	}

	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		key = appendStateKey(appendStateKey(key[:0], cur.s), cur.e.states...)
		if _, ok := visited[string(key)]; ok {
			continue
		}
		visited[string(key)] = struct{}{}
		if ok, cex := check(cur.s, cur.e.states, cur.e.trace); !ok {
			return false, cex, nil
		}
		for _, t := range impl.TransitionsFrom(cur.s) {
			var next []StateID
			for _, sp := range cur.e.states {
				next = append(next, spec.Successors(sp, t.Label)...)
			}
			next = normalizeStates(next)
			trace := append(append([]Interaction(nil), cur.e.trace...), t.Label)
			if len(next) == 0 {
				return false, trace, nil
			}
			queue = append(queue, struct {
				s StateID
				e entry
			}{t.To, entry{states: next, trace: trace}})
		}
	}
	return true, nil, nil
}

// refusalInclusion checks condition (2) at pair (s, U): the intersection
// ⋂_{s'∈U} enabled(s') must be within enabled(s), compared on interned
// label keys.
func refusalInclusion(in *Interner, impl, spec *Automaton, s StateID, u []StateID) bool {
	common := enabledKeySet(in, spec, u[0])
	for _, sp := range u[1:] {
		if len(common) == 0 {
			break
		}
		next := enabledKeySet(in, spec, sp)
		for k := range common {
			if _, ok := next[k]; !ok {
				delete(common, k)
			}
		}
	}
	mine := enabledKeySet(in, impl, s)
	for k := range common {
		if _, ok := mine[k]; !ok {
			return false
		}
	}
	return true
}

func enabledKeySet(in *Interner, a *Automaton, s StateID) map[InternKey]struct{} {
	keys := make(map[InternKey]struct{}, len(a.adj[s]))
	for _, t := range a.adj[s] {
		k, _ := in.Key(t.Label)
		keys[k] = struct{}{}
	}
	return keys
}

func normalizeStates(states []StateID) []StateID {
	if len(states) == 0 {
		return nil
	}
	sorted := make([]StateID, len(states))
	copy(sorted, states)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:1]
	for _, s := range sorted[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// appendStateKey appends the exact key of a state tuple or set to buf:
// four little-endian bytes per state. The product BFS keys its tuples by
// it, and Refines and IocoRefines their (state, subset) pairs; each looks
// a key up as m[string(buf)] on a reused buffer, which allocates nothing.
func appendStateKey(buf []byte, states ...StateID) []byte {
	for _, s := range states {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

// labelsMatch reports whether an implementation state labeled implLabels
// matches a specification state labeled specLabels for condition (1) of
// Definition 4. A specification state carrying the chaos proposition χ
// matches any labeling: per Theorem 1 the chaotic states s_∀ and s_δ are
// considered to fulfil all positive and negative propositions (the formula
// weakening of Section 2.7 realizes this on the logic side).
func labelsMatch(implLabels, specLabels []Proposition) bool {
	for _, p := range specLabels {
		if p == ChaosProposition {
			return true
		}
	}
	return labelsEqual(implLabels, specLabels)
}

func labelsEqual(a, b []Proposition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
