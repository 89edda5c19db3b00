package automata

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Proposition is an atomic proposition used by the labeling function
// L : S → ℘(P) of Section 2.1. Constraints and invariants are interpreted
// over propositions.
type Proposition string

// ChaosProposition is the fresh proposition p' attached to the chaotic
// states s_∀ and s_δ by the chaotic closure. Per Section 2.7, rather than
// duplicating the chaos states for every proposition subset, formulas are
// weakened by replacing p with (p ∨ p') and ¬p with (¬p ∨ p').
const ChaosProposition Proposition = "χ"

// StateID identifies a state within one automaton. IDs are dense indices
// starting at 0 and are not stable across automata.
type StateID int

// NoState is returned by lookups that find no state.
const NoState StateID = -1

// Transition is one element (from, A, B, to) of the transition relation T.
type Transition struct {
	From  StateID
	Label Interaction
	To    StateID
}

// stateInfo stores per-state bookkeeping. A composed automaton gets one for
// a state only when the state is first named (see product).
type stateInfo struct {
	name   string
	labels []Proposition // sorted
	// parts holds, for composed automata, the leaf state name of each
	// constituent leaf automaton; for leaf automata it is [name].
	parts []string
}

// leafInfo records the alphabet of one leaf automaton inside a composition,
// so that runs of a composed system can be attributed back to components.
type leafInfo struct {
	name    string
	inputs  SignalSet
	outputs SignalSet
}

// Automaton is a finite I/O automaton M = (S, I, O, T, L, Q) per
// Definitions 1 and Section 2.1 (labeling). Construct with New, then add
// states and transitions; the zero value is not usable.
//
// Automata are mutable while being built and should be treated as immutable
// once shared; none of the analysis functions in this package mutate their
// arguments.
type Automaton struct {
	name    string
	inputs  SignalSet
	outputs SignalSet
	states  []stateInfo
	index   map[string]StateID
	adj     [][]Transition
	initial []StateID
	leaves  []leafInfo
	// prod, set on a composed automaton only, holds its factors and the
	// factor-state tuple of every state (product.go).
	prod *product
	// derived caches the CSR and flat-transition snapshots (csr.go);
	// structural mutations invalidate it.
	derived derivedViews
}

// New creates an empty automaton with the given name and alphabets. The
// name identifies the component in rendered runs (e.g. "shuttle1").
func New(name string, inputs, outputs SignalSet) *Automaton {
	a := &Automaton{
		name:    name,
		inputs:  inputs,
		outputs: outputs,
		index:   make(map[string]StateID),
	}
	a.leaves = []leafInfo{{name: name, inputs: inputs, outputs: outputs}}
	return a
}

// Name returns the component name of the automaton.
func (a *Automaton) Name() string { return a.name }

// Inputs returns the input alphabet I.
func (a *Automaton) Inputs() SignalSet { return a.inputs }

// Outputs returns the output alphabet O.
func (a *Automaton) Outputs() SignalSet { return a.outputs }

// NumStates returns |S|.
func (a *Automaton) NumStates() int { return len(a.adj) }

// NumTransitions returns |T|.
func (a *Automaton) NumTransitions() int {
	n := 0
	for _, ts := range a.adj {
		n += len(ts)
	}
	return n
}

// AddState adds a state with the given name and labels and returns its ID.
// Adding a name twice returns an error. A composed automaton becomes a
// plain one first (see flatten).
func (a *Automaton) AddState(name string, labels ...Proposition) (StateID, error) {
	a.flatten()
	if _, ok := a.index[name]; ok {
		return NoState, fmt.Errorf("automata: duplicate state %q in %q", name, a.name)
	}
	id := StateID(len(a.states))
	a.states = append(a.states, stateInfo{name: name, labels: sortedLabels(labels), parts: []string{name}})
	a.index[name] = id
	a.adj = append(a.adj, nil)
	a.invalidateDerived()
	return id, nil
}

// MustAddState is AddState but panics on error; intended for static model
// construction where a duplicate name is a programming error.
func (a *Automaton) MustAddState(name string, labels ...Proposition) StateID {
	id, err := a.AddState(name, labels...)
	if err != nil {
		panic(err)
	}
	return id
}

// State returns the ID of the named state, or NoState if absent.
func (a *Automaton) State(name string) StateID {
	a.materialize()
	if id, ok := a.index[name]; ok {
		return id
	}
	return NoState
}

// StateName returns the name of the given state.
func (a *Automaton) StateName(id StateID) string {
	a.materialize()
	return a.states[id].name
}

// StateParts returns, for a composed automaton, the leaf-state names of the
// given state in leaf order; for a leaf automaton, the single state name.
func (a *Automaton) StateParts(id StateID) []string {
	a.materialize()
	parts := make([]string, len(a.states[id].parts))
	copy(parts, a.states[id].parts)
	return parts
}

// Labels returns the propositions labeling the given state, sorted.
func (a *Automaton) Labels(id StateID) []Proposition {
	a.materialize()
	labels := make([]Proposition, len(a.states[id].labels))
	copy(labels, a.states[id].labels)
	return labels
}

// HasLabel reports whether the state is labeled with the proposition. A
// composed state is labeled with its factor states' labels, which are read
// through its tuple without naming it.
func (a *Automaton) HasLabel(id StateID, p Proposition) bool {
	if a.prod != nil {
		for i, f := range a.prod.factors {
			if f.HasLabel(a.prod.state(id, i), p) {
				return true
			}
		}
		return false
	}
	labels := a.states[id].labels
	if len(labels) == 1 {
		// The common case on the factors of a product: a context state
		// labelled with its name, a closure copy with its model state's.
		return labels[0] == p
	}
	i := sort.Search(len(labels), func(i int) bool { return labels[i] >= p })
	return i < len(labels) && labels[i] == p
}

// AddLabel attaches a proposition to a state. A composed automaton becomes
// a plain one first (see flatten).
func (a *Automaton) AddLabel(id StateID, p Proposition) {
	a.flatten()
	if a.HasLabel(id, p) {
		return
	}
	labels := append(a.states[id].labels, p)
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	a.states[id].labels = labels
}

// LabelStatesByName labels every state s with the proposition "name.s"
// where name is the automaton's component name. This is the convention used
// by pattern constraints such as "rearRole.convoy".
func (a *Automaton) LabelStatesByName() {
	a.flatten()
	for id := range a.states {
		a.AddLabel(StateID(id), Proposition(a.name+"."+a.states[id].name))
	}
}

// AllPropositions returns the sorted union of all propositions used in the
// labeling (the label set ℒ(M)).
func (a *Automaton) AllPropositions() []Proposition {
	a.materialize()
	seen := make(map[Proposition]struct{})
	for _, st := range a.states {
		for _, p := range st.labels {
			seen[p] = struct{}{}
		}
	}
	props := make([]Proposition, 0, len(seen))
	for p := range seen {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	return props
}

// AddTransition adds (from, A, B, to) to T. The input set must be within I
// and the output set within O. Duplicate transitions are rejected.
func (a *Automaton) AddTransition(from StateID, label Interaction, to StateID) error {
	if err := a.checkState(from); err != nil {
		return err
	}
	if err := a.checkState(to); err != nil {
		return err
	}
	if !label.In.SubsetOf(a.inputs) {
		return fmt.Errorf("automata: %q: input set %v not within alphabet %v", a.name, label.In, a.inputs)
	}
	if !label.Out.SubsetOf(a.outputs) {
		return fmt.Errorf("automata: %q: output set %v not within alphabet %v", a.name, label.Out, a.outputs)
	}
	for _, t := range a.adj[from] {
		if t.To == to && t.Label.Equal(label) {
			return fmt.Errorf("automata: %q: duplicate transition %s -%s-> %s",
				a.name, a.StateName(from), label, a.StateName(to))
		}
	}
	a.adj[from] = append(a.adj[from], Transition{From: from, Label: label, To: to})
	a.invalidateDerived()
	return nil
}

// MustAddTransition is AddTransition but panics on error.
func (a *Automaton) MustAddTransition(from StateID, label Interaction, to StateID) {
	if err := a.AddTransition(from, label, to); err != nil {
		panic(err)
	}
}

// MarkInitial adds the state to the initial state set Q.
func (a *Automaton) MarkInitial(id StateID) {
	for _, q := range a.initial {
		if q == id {
			return
		}
	}
	a.initial = append(a.initial, id)
}

// Initial returns the initial state set Q.
func (a *Automaton) Initial() []StateID {
	out := make([]StateID, len(a.initial))
	copy(out, a.initial)
	return out
}

// TransitionsFrom returns the outgoing transitions of the state. The
// returned slice must not be mutated.
func (a *Automaton) TransitionsFrom(id StateID) []Transition {
	return a.adj[id]
}

// Transitions returns all transitions in a deterministic order: the
// states' transitions (TransitionsFrom) in state order. The returned slice
// is a fresh copy, so a loop may change the automaton while it ranges
// over it; a loop that only reads should range over TransitionsFrom.
func (a *Automaton) Transitions() []Transition {
	all := make([]Transition, 0, a.NumTransitions())
	for _, ts := range a.adj {
		all = append(all, ts...)
	}
	return all
}

// Successors returns the target states reachable from the state under the
// given interaction.
func (a *Automaton) Successors(id StateID, label Interaction) []StateID {
	var succ []StateID
	for _, t := range a.adj[id] {
		if t.Label.Equal(label) {
			succ = append(succ, t.To)
		}
	}
	return succ
}

// enables reports whether the state has a transition on the label.
func (a *Automaton) enables(id StateID, label Interaction) bool {
	for _, t := range a.adj[id] {
		if t.Label.Equal(label) {
			return true
		}
	}
	return false
}

// EnabledInteractions returns the distinct interaction labels with at least
// one outgoing transition from the state, in a deterministic order.
func (a *Automaton) EnabledInteractions(id StateID) []Interaction {
	seen := make(map[string]struct{})
	var labels []Interaction
	for _, t := range a.adj[id] {
		key := t.Label.Key()
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		labels = append(labels, t.Label)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key() < labels[j].Key() })
	return labels
}

// IsDeadlock reports whether the state has no outgoing transitions (the δ
// condition of Section 2.1).
func (a *Automaton) IsDeadlock(id StateID) bool { return len(a.adj[id]) == 0 }

// Deterministic reports whether for every state and interaction (A, B)
// there is at most one successor (the determinism notion of Section 2.6).
func (a *Automaton) Deterministic() bool {
	for id := range a.adj {
		seen := make(map[string]struct{}, len(a.adj[id]))
		for _, t := range a.adj[id] {
			key := t.Label.Key()
			if _, ok := seen[key]; ok {
				return false
			}
			seen[key] = struct{}{}
		}
	}
	return true
}

// Reachable returns the set of states reachable from Q, as a boolean slice
// indexed by StateID.
func (a *Automaton) Reachable() []bool {
	reached := make([]bool, a.NumStates())
	queue := make([]StateID, 0, len(a.initial))
	for _, q := range a.initial {
		if !reached[q] {
			reached[q] = true
			queue = append(queue, q)
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range a.adj[s] {
			if !reached[t.To] {
				reached[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	return reached
}

// DeadlockReachable reports whether a deadlock state is reachable from Q
// (the M ⊨ δ condition), returning one reachable deadlock state if so.
func (a *Automaton) DeadlockReachable() (StateID, bool) {
	reached := a.Reachable()
	for id := range a.adj {
		if reached[id] && a.IsDeadlock(StateID(id)) {
			return StateID(id), true
		}
	}
	return NoState, false
}

// Validate performs structural sanity checks: alphabets disjoint, at least
// one initial state, all transitions within bounds.
func (a *Automaton) Validate() error {
	if !a.inputs.Disjoint(a.outputs) {
		return fmt.Errorf("automata: %q: input and output alphabets overlap: %v",
			a.name, a.inputs.Intersect(a.outputs))
	}
	if len(a.initial) == 0 {
		return fmt.Errorf("automata: %q: no initial state", a.name)
	}
	return nil
}

// Trim returns a copy of the automaton restricted to the states reachable
// from its initial states.
func (a *Automaton) Trim(name string) *Automaton {
	a.materialize()
	reached := a.Reachable()
	b := New(name, a.inputs, a.outputs)
	b.leaves = append([]leafInfo(nil), a.leaves...)
	mapping := make([]StateID, len(a.states))
	for id, st := range a.states {
		if !reached[id] {
			mapping[id] = NoState
			continue
		}
		nid := b.MustAddState(st.name, st.labels...)
		b.states[nid].parts = append([]string(nil), st.parts...)
		mapping[id] = nid
	}
	for _, ts := range a.adj {
		for _, t := range ts {
			if mapping[t.From] == NoState || mapping[t.To] == NoState {
				continue
			}
			b.MustAddTransition(mapping[t.From], t.Label, mapping[t.To])
		}
	}
	for _, q := range a.initial {
		if mapping[q] != NoState {
			b.MarkInitial(mapping[q])
		}
	}
	return b
}

// Rename returns a copy of the automaton with signals renamed according to
// the mapping. Signals absent from the mapping are kept. Renaming must not
// merge distinct signals.
func (a *Automaton) Rename(name string, mapping map[Signal]Signal) (*Automaton, error) {
	ren := func(set SignalSet) SignalSet {
		signals := set.Signals()
		for i, sig := range signals {
			if to, ok := mapping[sig]; ok {
				signals[i] = to
			}
		}
		return NewSignalSet(signals...)
	}
	newIn, newOut := ren(a.inputs), ren(a.outputs)
	if newIn.Len() != a.inputs.Len() || newOut.Len() != a.outputs.Len() {
		return nil, errors.New("automata: rename merges distinct signals")
	}
	a.materialize()
	b := New(name, newIn, newOut)
	for id, st := range a.states {
		sid := b.MustAddState(st.name, st.labels...)
		if sid != StateID(id) {
			return nil, errors.New("automata: rename produced inconsistent state ids")
		}
	}
	for _, ts := range a.adj {
		for _, t := range ts {
			label := Interaction{In: ren(t.Label.In), Out: ren(t.Label.Out)}
			if err := b.AddTransition(t.From, label, t.To); err != nil {
				return nil, err
			}
		}
	}
	for _, q := range a.initial {
		b.MarkInitial(q)
	}
	return b, nil
}

// Clone returns a deep copy of the automaton under a new name.
func (a *Automaton) Clone(name string) *Automaton {
	b, err := a.Rename(name, nil)
	if err != nil {
		// Rename with a nil mapping cannot fail.
		panic(err)
	}
	return b
}

// String renders a compact summary.
func (a *Automaton) String() string {
	return fmt.Sprintf("%s(|S|=%d |T|=%d |I|=%d |O|=%d)",
		a.name, a.NumStates(), a.NumTransitions(), a.inputs.Len(), a.outputs.Len())
}

// Dot renders the automaton in Graphviz DOT format for inspection.
func (a *Automaton) Dot() string {
	a.materialize()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", a.name)
	initials := make(map[StateID]bool, len(a.initial))
	for _, q := range a.initial {
		initials[q] = true
	}
	for id, st := range a.states {
		shape := "circle"
		if initials[StateID(id)] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %d [label=%q shape=%s];\n", id, st.name, shape)
	}
	for _, ts := range a.adj {
		for _, t := range ts {
			fmt.Fprintf(&b, "  %d -> %d [label=%q];\n", t.From, t.To, t.Label.String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func (a *Automaton) checkState(id StateID) error {
	if id < 0 || int(id) >= a.NumStates() {
		return fmt.Errorf("automata: %q: state id %d out of range", a.name, id)
	}
	return nil
}

// sortedLabels returns a sorted, duplicate-free copy of labels.
func sortedLabels(labels []Proposition) []Proposition {
	sorted := make([]Proposition, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return dedupeProps(sorted)
}

func dedupeProps(sorted []Proposition) []Proposition {
	if len(sorted) < 2 {
		return sorted
	}
	out := sorted[:1]
	for _, p := range sorted[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}
