package automata

import (
	"fmt"
	"math/bits"
	"slices"
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
//
// T̄ and the settled labels are kept per state as bitsets over the model's
// label index (labelIndex): the component's compiled universe, once bound
// (BindUniverse), with the labels it lacks past its own. No label is
// stored twice and none is keyed by a string.
type Incomplete struct {
	auto   *Automaton
	labels labelIndex
	// blocked[s] is T̄ at state s, as a bitset over the label index; nil
	// until its first bit is set.
	blocked [][]uint64
	// settled[s] marks the learned labels whose successor set at s is
	// certified complete, over the same index. Only a nondeterministic
	// model reads it: for a deterministic implementation one learned
	// transition per label is already the whole story, while a
	// nondeterministic one may hide duplicate successors behind a label
	// until the fair-visit budget has cycled them all.
	settled                [][]uint64
	numBlocked, numSettled int
	// nondet marks a model of a possibly nondeterministic implementation
	// (NewNondetIncomplete). It selects the model's learning and closure
	// rules: Learn merges a divergent successor as a further branch, and
	// the chaotic closure counts a learned label as known only once it is
	// settled.
	nondet bool
}

// labelIndex numbers the labels a model refuses or settles: a label of
// the bound universe by its index there, and any other label by its
// position in ext past the universe's labels. A model bound to no
// universe (a decoded model, or one built outside the synthesis loop)
// keeps every label in ext.
type labelIndex struct {
	universe *CompiledUniverse
	ext      []Interaction
}

// base is the number of indices the universe takes.
func (x *labelIndex) base() int32 {
	if x.universe == nil {
		return 0
	}
	return int32(len(x.universe.labels))
}

// find returns the index of label l, or -1 when it has none.
func (x *labelIndex) find(l Interaction) int32 {
	if x.universe != nil {
		if i := x.universe.index(l); i >= 0 {
			return i
		}
	}
	for j, e := range x.ext {
		if e.Equal(l) {
			return x.base() + int32(j)
		}
	}
	return -1
}

// add returns the index of label l, giving it the next extension index
// when it has none.
func (x *labelIndex) add(l Interaction) int32 {
	if i := x.find(l); i >= 0 {
		return i
	}
	x.ext = append(x.ext, l)
	return x.base() + int32(len(x.ext)-1)
}

// label returns the label with index i.
func (x *labelIndex) label(i int32) Interaction {
	if n := x.base(); i >= n {
		return x.ext[i-n]
	}
	return x.universe.labels[i]
}

// size is the number of indices in use.
func (x *labelIndex) size() int { return int(x.base()) + len(x.ext) }

// hasBit reports whether bit i of the bitset is set.
func hasBit(set []uint64, i int32) bool {
	w := int(i >> 6)
	return i >= 0 && w < len(set) && set[w]&(1<<(i&63)) != 0
}

// bitsAt returns state s's bitset in rows (nil when it has none).
func bitsAt(rows [][]uint64, s StateID) []uint64 {
	if int(s) < len(rows) {
		return rows[s]
	}
	return nil
}

// setBit sets bit i of state s's bitset in *rows and reports whether it
// was clear. A state's bitset is allocated on its first bit, wide enough
// for every index in use, and grows when a later extension label needs it.
func (m *Incomplete) setBit(rows *[][]uint64, s StateID, i int32) bool {
	if int(s) >= len(*rows) {
		*rows = append(*rows, make([][]uint64, m.auto.NumStates()-len(*rows))...)
	}
	set := (*rows)[s]
	w := int(i >> 6)
	if w >= len(set) {
		set = append(set, make([]uint64, (m.labels.size()+63)/64-len(set))...)
		(*rows)[s] = set
	}
	if set[w]&(1<<(i&63)) != 0 {
		return false
	}
	set[w] |= 1 << (i & 63)
	return true
}

// NewIncomplete wraps an automaton as an incomplete automaton with an empty
// blocked set T̄, modelling a deterministic implementation.
func NewIncomplete(a *Automaton) *Incomplete {
	return &Incomplete{auto: a}
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

// BindUniverse makes the compiled universe the model's label index: its
// refused and settled labels are then numbered by their index in the
// universe, the closures and systems built over the same compiled universe
// read them as they are, and RefuseUnder walks the universe's labels. The
// universe must be compiled over the model's alphabets, and the model must
// not yet hold a refused or settled label.
func (m *Incomplete) BindUniverse(cu *CompiledUniverse) error {
	if err := cu.checkAlphabets(m.auto); err != nil {
		return err
	}
	if m.numBlocked+m.numSettled > 0 {
		return fmt.Errorf("automata: %q already holds refused or settled labels", m.auto.name)
	}
	m.labels = labelIndex{universe: cu}
	return nil
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
	if m.auto.enables(s, label) {
		return fmt.Errorf("automata: cannot block %s at %q: transition exists",
			label, m.auto.StateName(s))
	}
	if m.setBit(&m.blocked, s, m.labels.add(label)) {
		m.numBlocked++
	}
	return nil
}

// IsBlocked reports whether (s, A, B) ∈ T̄.
func (m *Incomplete) IsBlocked(s StateID, label Interaction) bool {
	set := bitsAt(m.blocked, s)
	return set != nil && hasBit(set, m.labels.find(label))
}

// RefuseUnder records the component's refusals at state s under the input
// set in, over the labels of the bound universe (BindUniverse) with that
// input, in enumeration order. Each label that is neither learned at s nor
// already in T̄ is added to T̄, except the one whose output set is *except
// when except is non-nil (the component answered in with it). With settle
// set, each learned label not yet settled is settled (SettleLabel). The
// entries added are appended to delta's NewBlocked and NewSettled.
func (m *Incomplete) RefuseUnder(s StateID, in SignalSet, except *SignalSet, settle bool, delta *LearnDelta) error {
	if err := m.auto.checkState(s); err != nil {
		return err
	}
	cu := m.labels.universe
	if cu == nil {
		return fmt.Errorf("automata: cannot refuse at %q: no universe bound", m.auto.StateName(s))
	}
	for _, i := range cu.labelsUnder(in) {
		x := cu.labels[i]
		if except != nil && x.Out.Equal(*except) {
			continue
		}
		if !m.auto.enables(s, x) {
			if m.setBit(&m.blocked, s, i) {
				m.numBlocked++
				delta.NewBlocked = append(delta.NewBlocked, BlockedEntry{State: s, Label: x})
			}
		} else if settle && m.setBit(&m.settled, s, i) {
			m.numSettled++
			delta.NewSettled = append(delta.NewSettled, BlockedEntry{State: s, Label: x})
		}
	}
	return nil
}

// BlockedAt returns the interactions blocked at the state, in canonical
// order.
func (m *Incomplete) BlockedAt(s StateID) []Interaction {
	return m.appendSorted(nil, bitsAt(m.blocked, s))
}

// appendSorted appends the labels of the bitset to dst in the order of
// their Key strings, without building them.
func (m *Incomplete) appendSorted(dst []Interaction, set []uint64) []Interaction {
	start := len(dst)
	for w, word := range set {
		for rest := word; rest != 0; rest &= rest - 1 {
			dst = append(dst, m.labels.label(int32(64*w+bits.TrailingZeros64(rest))))
		}
	}
	slices.SortFunc(dst[start:], compareKeys)
	return dst
}

// NumBlocked returns |T̄|.
func (m *Incomplete) NumBlocked() int { return m.numBlocked }

// SettleLabel certifies that the successor set of (s, A, B) is complete:
// every transition the implementation can take at s under the interaction
// is already in T. It is an error to settle a label with no learned
// transition — completeness of an empty successor set is a refusal and
// belongs in T̄ via Block.
func (m *Incomplete) SettleLabel(s StateID, label Interaction) error {
	if err := m.auto.checkState(s); err != nil {
		return err
	}
	if !m.auto.enables(s, label) {
		return fmt.Errorf("automata: cannot settle %s at %q: no transition learned",
			label, m.auto.StateName(s))
	}
	if m.setBit(&m.settled, s, m.labels.add(label)) {
		m.numSettled++
	}
	return nil
}

// IsSettled reports whether the successor set of (s, A, B) has been
// certified complete via SettleLabel.
func (m *Incomplete) IsSettled(s StateID, label Interaction) bool {
	set := bitsAt(m.settled, s)
	return set != nil && hasBit(set, m.labels.find(label))
}

// NumSettled returns the number of settled (state, interaction) pairs.
func (m *Incomplete) NumSettled() int { return m.numSettled }

// orKnown ORs into known, a bitset over the labels of the compiled universe
// cu, the labels of cu known at state s: those refused there, and unless
// literal, the learned ones the closure counts as known — every learned
// label of a deterministic model, and the settled ones of a
// nondeterministic model. A model bound to cu contributes its bits as they
// are; any other translates its labels. known is allocated on the first
// bit (nil when none is known).
func (m *Incomplete) orKnown(known []uint64, s StateID, cu *CompiledUniverse, literal bool) []uint64 {
	known = m.orBits(known, bitsAt(m.blocked, s), cu)
	switch {
	case literal:
	case m.nondet:
		known = m.orBits(known, bitsAt(m.settled, s), cu)
	default:
		for _, t := range m.auto.adj[s] {
			known = orBit(known, cu.index(t.Label), len(cu.labels))
		}
	}
	return known
}

// orBits ORs the bitset set, over the model's label index, into known, over
// cu's labels (see orKnown).
func (m *Incomplete) orBits(known, set []uint64, cu *CompiledUniverse) []uint64 {
	n := len(cu.labels)
	if m.labels.universe != cu {
		for w, word := range set {
			for rest := word; rest != 0; rest &= rest - 1 {
				known = orBit(known, cu.index(m.labels.label(int32(64*w+bits.TrailingZeros64(rest)))), n)
			}
		}
		return known
	}
	words := (n + 63) / 64
	for w := 0; w < words && w < len(set); w++ {
		word := set[w]
		if w == words-1 && n%64 != 0 {
			word &= 1<<(n%64) - 1 // extension labels lie past the universe's
		}
		if word == 0 {
			continue
		}
		if known == nil {
			known = make([]uint64, words)
		}
		known[w] |= word
	}
	return known
}

// orBit sets bit i of known, a bitset over n labels, allocating it on the
// first bit; a negative i (a label outside the universe) leaves it as it
// is.
func orBit(known []uint64, i int32, n int) []uint64 {
	if i < 0 {
		return known
	}
	if known == nil {
		known = make([]uint64, (n+63)/64)
	}
	known[i>>6] |= 1 << (i & 63)
	return known
}

// Consistent verifies the Definition 6 requirement that no interaction is
// both in T and T̄.
func (m *Incomplete) Consistent() error {
	for s := range m.blocked {
		for _, x := range m.BlockedAt(StateID(s)) {
			if m.auto.enables(StateID(s), x) {
				return fmt.Errorf("automata: inconsistent incomplete automaton: %s enabled and blocked at %q",
					x, m.auto.StateName(StateID(s)))
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
	// T̄ holding each label at most once per state suffices.
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
			if !m.auto.enables(s, x) && !m.IsBlocked(s, x) {
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
		if !m.auto.enables(s, x) && !m.IsBlocked(s, x) {
			unknown = append(unknown, x)
		}
	}
	return unknown
}

// Clone returns a deep copy of the incomplete automaton, bound to the same
// universe.
func (m *Incomplete) Clone() *Incomplete {
	c := *m
	c.auto = m.auto.Clone(m.auto.name)
	c.labels.ext = slices.Clone(m.labels.ext)
	c.blocked = cloneRows(m.blocked)
	c.settled = cloneRows(m.settled)
	return &c
}

func cloneRows(rows [][]uint64) [][]uint64 {
	if rows == nil {
		return nil
	}
	out := make([][]uint64, len(rows))
	for s, set := range rows {
		out[s] = slices.Clone(set)
	}
	return out
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
