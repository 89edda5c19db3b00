package automata

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// product is what a composed automaton keeps per state instead of a
// stateInfo: a state of M‖M' is the pair (s, s') of Definition 3, and of
// an n-ary product the tuple of its factors' states. The synthesis loop
// reads a composed state only through its labels and provenance, which
// HasLabel, IsChaosState, ProjectRun and FactorState take from the factors
// through the tuple. Its name, label list and parts are derived from the
// factors only when one of them is read (materialize), so a product that
// is checked and tested but never listed names no state at all.
//
// Composing reads the factors' names and labels when the product's are
// first read, not when the product is built, so a factor must not change
// the names or labels of its states once composed (the Automaton contract:
// immutable once shared). Adding states to a factor is fine, and the
// incremental system does so to its closure.
type product struct {
	factors []*Automaton
	// tuples holds the factor states of state s at tuples[s*k : s*k+k],
	// k = len(factors).
	tuples []StateID

	// mu guards naming: named, nameSeq, and the automaton's state records
	// and name index, so that goroutines reading a finished automaton may
	// name it concurrently. Adjacency is never touched.
	mu sync.Mutex
	// named counts the states that have their stateInfo and index entry:
	// always a prefix of the IDs.
	named int
	// nameSeq tracks, per base name, the next "#n" suffix to try when
	// uniqueName must disambiguate a collision; avoids quadratic re-probing.
	nameSeq map[string]int
}

// materializations counts the materialize calls that named at least one
// state (read by tests through export_test.go).
var materializations atomic.Int64

// newProduct returns an empty composed automaton over the factors: inputs
// and outputs are the unions of theirs, taken from alpha, the interner
// alphabet over the factors' (inputs, outputs) pairs in order, and its
// leaves are theirs in order.
func newProduct(name string, alpha *internAlphabet, factors ...*Automaton) *Automaton {
	var leaves []leafInfo
	for _, f := range factors {
		leaves = append(leaves, f.leaves...)
	}
	c := New(name, alpha.inputs, alpha.outputs)
	c.leaves = leaves
	c.prod = &product{factors: factors}
	return c
}

// state returns the state of factor i in composed state s.
func (p *product) state(s StateID, i int) StateID {
	return p.tuples[int(s)*len(p.factors)+i]
}

// addTuple appends the composed state of the given factor states, unnamed
// and without transitions, and returns its ID. It does not drop the
// derived views: a product under construction has none, and the
// incremental system drops them after every patch.
func (a *Automaton) addTuple(states ...StateID) StateID {
	obsComposedStates.Add(1)
	a.prod.tuples = append(a.prod.tuples, states...)
	a.adj = append(a.adj, nil)
	return StateID(len(a.adj) - 1)
}

// Factors returns the automata a composed automaton was built from, in
// composition order, or nil when a is not a product (a leaf, a copy, or a
// product that was changed after composing; see flatten). The slice is
// shared and must not be mutated.
func (a *Automaton) Factors() []*Automaton {
	if a.prod == nil {
		return nil
	}
	return a.prod.factors
}

// FactorState returns the state of the i-th factor (see Factors) in the
// composed state s, without naming s.
func (a *Automaton) FactorState(s StateID, i int) StateID {
	return a.prod.state(s, i)
}

// StateOfFactors returns the composed state whose tuple is states, or
// NoState, without naming any state. It scans the tuples: for rare
// lookups.
func (a *Automaton) StateOfFactors(states ...StateID) StateID {
	k := len(a.prod.factors)
	for s := 0; s < a.NumStates(); s++ {
		if slices.Equal(a.prod.tuples[s*k:s*k+k], states) {
			return StateID(s)
		}
	}
	return NoState
}

// materialize gives every composed state that has no stateInfo yet its
// record, in ID order: its factors' names joined by "|" and made unique by
// uniqueName, the union of their labels, and the concatenation of their
// parts. That is exactly what the state would have got had it been named
// when it was created: uniqueName then saw the same earlier names in the
// same order, so "#n" suffixes, listings and journals read the same.
// Every reader of names, label lists or parts calls it first; it is a
// no-op on a leaf and on a product that is named throughout.
func (a *Automaton) materialize() {
	p := a.prod
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(a.adj)
	if p.named == n {
		return
	}
	materializations.Add(1)
	for _, f := range p.factors {
		f.materialize()
	}
	names := make([]string, len(p.factors))
	var labels []Proposition
	for s := StateID(p.named); int(s) < n; s++ {
		labels = labels[:0]
		var parts []string
		for i, f := range p.factors {
			st := &f.states[p.state(s, i)]
			names[i] = st.name
			labels = append(labels, st.labels...)
			parts = append(parts, st.parts...)
		}
		name := uniqueName(a, strings.Join(names, "|"))
		a.index[name] = s
		a.states = append(a.states, stateInfo{name: name, labels: sortedLabels(labels), parts: parts})
	}
	p.named = n
}

// flatten turns a composed automaton into a plain one before a mutation
// of its states or labels: every state is named, and the factors and
// tuples are dropped, so the automaton's own records are the only truth
// from then on.
func (a *Automaton) flatten() {
	if a.prod != nil {
		a.materialize()
		a.prod = nil
	}
}

// leafPart returns the part of state s that belongs to leaf number leaf
// (in leaf order), descending through the factors' tuples without naming
// any composed state; ok is false when a plain automaton's state carries
// no per-leaf provenance.
func (a *Automaton) leafPart(s StateID, leaf int) (part string, ok bool) {
	for a.prod != nil {
		for i, f := range a.prod.factors {
			if leaf < len(f.leaves) {
				a, s = f, a.prod.state(s, i)
				break
			}
			leaf -= len(f.leaves)
		}
	}
	parts := a.states[s].parts
	if len(parts) != len(a.leaves) {
		return "", false
	}
	return parts[leaf], true
}
