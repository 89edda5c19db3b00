package automata

import (
	"fmt"
	"sort"
	"strings"
)

// Incomplete is an incomplete automaton M = (S, I, O, T, T̄, Q) per
// Definition 6: an automaton plus the set T̄ ⊆ S × ℘(I) × ℘(O) of known
// *not supported* interactions. T and T̄ must be consistent: no interaction
// is both enabled by T and blocked by T̄.
//
// In an incomplete automaton a deadlock run is only assumed when the final
// interaction is explicitly in T̄ (Definition 7) — absence of a transition
// leaves the interaction's status unknown.
type Incomplete struct {
	auto    *Automaton
	blocked map[StateID]map[string]Interaction // state -> interaction key -> interaction
	// settled marks learned labels whose successor set at the state is
	// certified complete (state -> interaction key). Only a
	// nondeterministic model reads it: for a deterministic implementation
	// one learned transition per label is already the whole story, while a
	// nondeterministic one may hide duplicate successors behind a label
	// until the fair-visit budget has cycled them all.
	settled map[StateID]map[string]struct{}
	// nondet marks a model of a possibly nondeterministic implementation
	// (NewNondetIncomplete). It selects the model's learning and closure
	// rules: Learn merges a divergent successor as a further branch, and
	// the chaotic closure counts a learned label as known only once it is
	// settled.
	nondet bool
}

// NewIncomplete wraps an automaton as an incomplete automaton with an empty
// blocked set T̄, modelling a deterministic implementation.
func NewIncomplete(a *Automaton) *Incomplete {
	return &Incomplete{
		auto:    a,
		blocked: make(map[StateID]map[string]Interaction),
		settled: make(map[StateID]map[string]struct{}),
	}
}

// NewNondetIncomplete is NewIncomplete for a possibly nondeterministic
// implementation (the ioco path of DESIGN.md §13). Learn records a
// successor that differs from the learned ones as an additional branch
// instead of rejecting it, and the chaotic closure keeps a learned label's
// chaos escapes until SettleLabel certifies its successor set complete:
// one learned successor of (s, A, B) says nothing about unlearned siblings
// under the same label, so suppressing the escapes earlier would
// under-approximate the implementation.
func NewNondetIncomplete(a *Automaton) *Incomplete {
	m := NewIncomplete(a)
	m.nondet = true
	return m
}

// Nondet reports whether the model is of a possibly nondeterministic
// implementation (NewNondetIncomplete), whose learning and closure rules
// it selects.
func (m *Incomplete) Nondet() bool { return m.nondet }

// Automaton returns the underlying (S, I, O, T, Q) part. Callers must not
// mutate it in ways that violate consistency with T̄.
func (m *Incomplete) Automaton() *Automaton { return m.auto }

// Block adds (s, A, B) to T̄. It is an error if the interaction is not
// within the automaton's alphabets, or if T already enables it at s
// (consistency requirement of Definition 6).
func (m *Incomplete) Block(s StateID, label Interaction) error {
	if err := m.auto.checkState(s); err != nil {
		return err
	}
	if !label.In.SubsetOf(m.auto.inputs) || !label.Out.SubsetOf(m.auto.outputs) {
		return fmt.Errorf("automata: cannot block %s at %q: not within alphabets (%v, %v)",
			label, m.auto.StateName(s), m.auto.inputs, m.auto.outputs)
	}
	if len(m.auto.Successors(s, label)) > 0 {
		return fmt.Errorf("automata: cannot block %s at %q: transition exists",
			label, m.auto.StateName(s))
	}
	set, ok := m.blocked[s]
	if !ok {
		set = make(map[string]Interaction)
		m.blocked[s] = set
	}
	set[label.Key()] = label
	return nil
}

// IsBlocked reports whether (s, A, B) ∈ T̄.
func (m *Incomplete) IsBlocked(s StateID, label Interaction) bool {
	set, ok := m.blocked[s]
	if !ok {
		return false
	}
	_, ok = set[label.Key()]
	return ok
}

// BlockedAt returns the interactions blocked at the state, in canonical
// order.
func (m *Incomplete) BlockedAt(s StateID) []Interaction {
	set := m.blocked[s]
	labels := make([]Interaction, 0, len(set))
	for _, x := range set {
		labels = append(labels, x)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key() < labels[j].Key() })
	return labels
}

// NumBlocked returns |T̄|.
func (m *Incomplete) NumBlocked() int {
	n := 0
	for _, set := range m.blocked {
		n += len(set)
	}
	return n
}

// SettleLabel certifies that the successor set of (s, A, B) is complete:
// every transition the implementation can take at s under the interaction
// is already in T. It is an error to settle a label with no learned
// transition — completeness of an empty successor set is a refusal and
// belongs in T̄ via Block.
func (m *Incomplete) SettleLabel(s StateID, label Interaction) error {
	if err := m.auto.checkState(s); err != nil {
		return err
	}
	if len(m.auto.Successors(s, label)) == 0 {
		return fmt.Errorf("automata: cannot settle %s at %q: no transition learned",
			label, m.auto.StateName(s))
	}
	set, ok := m.settled[s]
	if !ok {
		set = make(map[string]struct{})
		m.settled[s] = set
	}
	set[label.Key()] = struct{}{}
	return nil
}

// IsSettled reports whether the successor set of (s, A, B) has been
// certified complete via SettleLabel.
func (m *Incomplete) IsSettled(s StateID, label Interaction) bool {
	set, ok := m.settled[s]
	if !ok {
		return false
	}
	_, ok = set[label.Key()]
	return ok
}

// NumSettled returns the number of settled (state, interaction) pairs.
func (m *Incomplete) NumSettled() int {
	n := 0
	for _, set := range m.settled {
		n += len(set)
	}
	return n
}

// Consistent verifies the Definition 6 requirement that no interaction is
// both in T and T̄.
func (m *Incomplete) Consistent() error {
	for s, set := range m.blocked {
		for _, x := range set {
			if len(m.auto.Successors(s, x)) > 0 {
				return fmt.Errorf("automata: inconsistent incomplete automaton: %s enabled and blocked at %q",
					x, m.auto.StateName(s))
			}
		}
	}
	return nil
}

// Deterministic reports determinism per Section 2.6: for any s, A, B at
// most one element in T ∪ T̄.
func (m *Incomplete) Deterministic() bool {
	if !m.auto.Deterministic() {
		return false
	}
	// T and T̄ are disjoint by consistency, so determinism of T plus
	// uniqueness of map keys in T̄ suffices.
	return m.Consistent() == nil
}

// Complete reports whether the automaton is complete with respect to the
// given interaction universe: every interaction at every state is either in
// T or in T̄ (Section 2.6).
func (m *Incomplete) Complete(universe InteractionUniverse) bool {
	labels := universe.Enumerate(m.auto.inputs, m.auto.outputs)
	for id := range m.auto.states {
		s := StateID(id)
		for _, x := range labels {
			if len(m.auto.Successors(s, x)) == 0 && !m.IsBlocked(s, x) {
				return false
			}
		}
	}
	return true
}

// Unknown returns the interactions at the state that are neither enabled
// nor blocked — the frontier that the chaotic closure over-approximates.
func (m *Incomplete) Unknown(s StateID, universe InteractionUniverse) []Interaction {
	var unknown []Interaction
	for _, x := range universe.Enumerate(m.auto.inputs, m.auto.outputs) {
		if len(m.auto.Successors(s, x)) == 0 && !m.IsBlocked(s, x) {
			unknown = append(unknown, x)
		}
	}
	return unknown
}

// Clone returns a deep copy of the incomplete automaton.
func (m *Incomplete) Clone() *Incomplete {
	c := NewIncomplete(m.auto.Clone(m.auto.name))
	c.nondet = m.nondet
	for s, set := range m.blocked {
		dst := make(map[string]Interaction, len(set))
		for k, v := range set {
			dst[k] = v
		}
		c.blocked[s] = dst
	}
	for s, set := range m.settled {
		dst := make(map[string]struct{}, len(set))
		for k := range set {
			dst[k] = struct{}{}
		}
		c.settled[s] = dst
	}
	return c
}

// Dot renders the incomplete automaton in Graphviz DOT format: learned
// transitions as solid edges and each blocked interaction of T̄ as a
// dashed edge into a shared refusal node.
func (m *Incomplete) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", m.auto.name)
	initials := make(map[StateID]bool)
	for _, q := range m.auto.Initial() {
		initials[q] = true
	}
	for id, st := range m.auto.states {
		shape := "circle"
		if initials[StateID(id)] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %d [label=%q shape=%s];\n", id, st.name, shape)
	}
	if m.NumBlocked() > 0 {
		b.WriteString("  refused [label=\"T̄\" shape=box style=dashed];\n")
	}
	for _, ts := range m.auto.adj {
		for _, t := range ts {
			fmt.Fprintf(&b, "  %d -> %d [label=%q];\n", t.From, t.To, t.Label.String())
		}
	}
	for id := range m.auto.states {
		for _, x := range m.BlockedAt(StateID(id)) {
			fmt.Fprintf(&b, "  %d -> refused [label=%q style=dashed];\n", id, x.String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// IsRunOf verifies a run against the incomplete automaton: regular steps
// must follow T; a deadlock run's final interaction must be in T̄
// (Definition 7).
func (m *Incomplete) IsRunOf(r Run) error {
	if !r.Deadlock {
		return r.IsRunOf(m.auto)
	}
	regular := Run{States: r.States, Steps: r.Steps[:len(r.Steps)-1]}
	if err := regular.IsRunOf(m.auto); err != nil {
		return err
	}
	last := r.States[len(r.States)-1]
	blockedLabel := r.Steps[len(r.Steps)-1]
	if !m.IsBlocked(last, blockedLabel) {
		return fmt.Errorf("automata: deadlock run's final interaction %s not in T̄ at %q",
			blockedLabel, m.auto.StateName(last))
	}
	return nil
}
