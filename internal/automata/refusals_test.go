package automata_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"muml/internal/automata"
	"muml/internal/gen"
)

// literalRefusals is T̄ and the settled set written literally: per state, a
// map from Interaction.Key() to the label. runRefusalSequence checks an
// Incomplete against it after every operation.
type literalRefusals struct {
	blocked, settled map[automata.StateID]map[string]automata.Interaction
}

func newLiteralRefusals() *literalRefusals {
	return &literalRefusals{
		blocked: make(map[automata.StateID]map[string]automata.Interaction),
		settled: make(map[automata.StateID]map[string]automata.Interaction),
	}
}

func (r *literalRefusals) add(set map[automata.StateID]map[string]automata.Interaction, s automata.StateID, x automata.Interaction) bool {
	if set[s] == nil {
		set[s] = make(map[string]automata.Interaction)
	}
	if _, ok := set[s][x.Key()]; ok {
		return false
	}
	set[s][x.Key()] = x
	return true
}

func (r *literalRefusals) has(set map[automata.StateID]map[string]automata.Interaction, s automata.StateID, x automata.Interaction) bool {
	_, ok := set[s][x.Key()]
	return ok
}

func (r *literalRefusals) clone() *literalRefusals {
	c := newLiteralRefusals()
	for _, pair := range [][2]map[automata.StateID]map[string]automata.Interaction{{r.blocked, c.blocked}, {r.settled, c.settled}} {
		for s, set := range pair[0] {
			for _, x := range set {
				c.add(pair[1], s, x)
			}
		}
	}
	return c
}

// sorted lists a state's labels in Key order.
func sorted(set map[string]automata.Interaction) []automata.Interaction {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]automata.Interaction, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// fingerprint is Incomplete.Fingerprint's definition over the literal sets:
// FNV-1a over the automaton's fingerprint, then per part (T̄, settled) the
// count and, per state with labels, the state and each label's Key with a
// 0xFF terminator, then the nondeterministic marker.
func (r *literalRefusals) fingerprint(m *automata.Incomplete) uint64 {
	h := uint64(14695981039346656037)
	b := func(c byte) { h = (h ^ uint64(c)) * 1099511628211 }
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b(byte(v))
			v >>= 8
		}
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			b(s[i])
		}
		b(0xFF)
	}
	u64(m.Automaton().Fingerprint())
	for _, part := range []map[automata.StateID]map[string]automata.Interaction{r.blocked, r.settled} {
		n := 0
		for _, set := range part {
			n += len(set)
		}
		u64(uint64(n))
		for s := 0; s < m.Automaton().NumStates(); s++ {
			set := part[automata.StateID(s)]
			if len(set) == 0 {
				continue
			}
			u64(uint64(s))
			for _, x := range sorted(set) {
				str(x.Key())
			}
		}
	}
	if m.Nondet() {
		str("nondet")
	}
	return h
}

// check compares every read of the model with the literal sets.
func (r *literalRefusals) check(t *testing.T, m *automata.Incomplete, labels []automata.Interaction, where string) {
	t.Helper()
	nb, ns := 0, 0
	for s := 0; s < m.Automaton().NumStates(); s++ {
		id := automata.StateID(s)
		nb += len(r.blocked[id])
		ns += len(r.settled[id])
		if got, want := m.BlockedAt(id), sorted(r.blocked[id]); !slices.EqualFunc(got, want, automata.Interaction.Equal) {
			t.Fatalf("%s: BlockedAt(%d) = %v, want %v", where, s, got, want)
		}
		for _, x := range labels {
			if got, want := m.IsBlocked(id, x), r.has(r.blocked, id, x); got != want {
				t.Fatalf("%s: IsBlocked(%d, %v) = %v, want %v", where, s, x, got, want)
			}
			if got, want := m.IsSettled(id, x), r.has(r.settled, id, x); got != want {
				t.Fatalf("%s: IsSettled(%d, %v) = %v, want %v", where, s, x, got, want)
			}
		}
	}
	if m.NumBlocked() != nb || m.NumSettled() != ns {
		t.Fatalf("%s: NumBlocked, NumSettled = %d, %d, want %d, %d", where, m.NumBlocked(), m.NumSettled(), nb, ns)
	}
	if got, want := m.Fingerprint(), r.fingerprint(m); got != want {
		t.Fatalf("%s: Fingerprint = %#x, want %#x", where, got, want)
	}
}

// refusalsTestLabels returns the labels a random sequence draws from: the
// singleton universe's, two-signal ones the universe lacks, and some with a
// signal outside the alphabets.
func refusalsTestLabels(a *automata.Automaton) []automata.Interaction {
	labels := automata.Universe(automata.UniverseSingleton).Enumerate(a.Inputs(), a.Outputs())
	ins, outs := a.Inputs().Signals(), a.Outputs().Signals()
	if len(ins) >= 2 {
		labels = append(labels,
			automata.Interact(ins[:2], nil),
			automata.Interact(ins[len(ins)-2:], outs[:1]))
	}
	if len(outs) >= 2 {
		labels = append(labels, automata.Interact(ins[:1], outs[len(outs)-2:]))
	}
	return append(labels,
		automata.Interact([]automata.Signal{"zz"}, nil),
		automata.Interact(ins[:1], []automata.Signal{"zz"}))
}

// TestRefusalBitsMatchLiteralSets runs random sequences of Block,
// SettleLabel, RefuseUnder, Clone and every read over models of gen
// default, wide and nondeterministic instances against literal string-keyed
// sets. Each model is bound to the singleton universe, to a FixedUniverse
// that lacks every other universe label, or to none, and the labels include
// ones outside every universe and outside the alphabets.
func TestRefusalBitsMatchLiteralSets(t *testing.T) {
	configs := map[string]gen.Config{"default": gen.DefaultConfig(), "wide": gen.WideConfig(), "nondet": gen.NondetConfig()}
	for name, cfg := range configs {
		for seed := int64(1); seed <= 8; seed++ {
			inst, err := gen.New(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for bind := 0; bind < 3; bind++ {
				where := fmt.Sprintf("%s seed %d binding %d", name, seed, bind)
				runRefusalSequence(t, inst.Legacy, bind, rand.New(rand.NewSource(seed*3+int64(bind))), where)
			}
		}
	}
}

func runRefusalSequence(t *testing.T, legacy *automata.Automaton, bind int, r *rand.Rand, where string) {
	t.Helper()
	a := legacy.Clone(legacy.Name())
	labels := refusalsTestLabels(a)
	var universe automata.InteractionUniverse
	switch bind {
	case 0:
		universe = automata.Universe(automata.UniverseSingleton)
	case 1:
		var fixed automata.FixedUniverse
		for i, x := range automata.Universe(automata.UniverseSingleton).Enumerate(a.Inputs(), a.Outputs()) {
			if i%2 == 0 {
				fixed = append(fixed, x)
			}
		}
		universe = fixed
	}
	var cu *automata.CompiledUniverse
	m := automata.NewIncomplete(a)
	if r.Intn(2) == 0 {
		m = automata.NewNondetIncomplete(a)
	}
	if universe != nil {
		cu = automata.CompileUniverse(universe, a.Inputs(), a.Outputs())
		if err := m.BindUniverse(cu); err != nil {
			t.Fatal(err)
		}
	}
	ref := newLiteralRefusals()
	var left []leftModel
	within := func(x automata.Interaction) bool {
		return x.In.SubsetOf(a.Inputs()) && x.Out.SubsetOf(a.Outputs())
	}
	for op := 0; op < 200; op++ {
		s := automata.StateID(r.Intn(a.NumStates()))
		x := labels[r.Intn(len(labels))]
		enabled := len(a.Successors(s, x)) > 0
		switch k := r.Intn(10); {
		case k < 4:
			err := m.Block(s, x)
			if wantErr := !within(x) || enabled; (err != nil) != wantErr {
				t.Fatalf("%s: Block(%d, %v) error %v, want error %v", where, s, x, err, wantErr)
			}
			if err == nil {
				ref.add(ref.blocked, s, x)
			}
		case k < 6:
			err := m.SettleLabel(s, x)
			if (err != nil) != !enabled {
				t.Fatalf("%s: SettleLabel(%d, %v) error %v, want error %v", where, s, x, err, !enabled)
			}
			if err == nil {
				ref.add(ref.settled, s, x)
			}
		case k < 8 && cu != nil:
			var except *automata.SignalSet
			if r.Intn(2) == 0 {
				except = &x.Out
			}
			settle := r.Intn(2) == 0
			var delta, want automata.LearnDelta
			if err := m.RefuseUnder(s, x.In, except, settle, &delta); err != nil {
				t.Fatal(err)
			}
			for _, y := range universe.Enumerate(a.Inputs(), a.Outputs()) {
				switch {
				case !y.In.Equal(x.In) || except != nil && y.Out.Equal(*except):
				case len(a.Successors(s, y)) == 0:
					if ref.add(ref.blocked, s, y) {
						want.NewBlocked = append(want.NewBlocked, automata.BlockedEntry{State: s, Label: y})
					}
				case settle:
					if ref.add(ref.settled, s, y) {
						want.NewSettled = append(want.NewSettled, automata.BlockedEntry{State: s, Label: y})
					}
				}
			}
			eq := func(a, b automata.BlockedEntry) bool { return a.State == b.State && a.Label.Equal(b.Label) }
			if !slices.EqualFunc(delta.NewBlocked, want.NewBlocked, eq) || !slices.EqualFunc(delta.NewSettled, want.NewSettled, eq) {
				t.Fatalf("%s: RefuseUnder(%d, %v) delta %+v, want %+v", where, s, x.In, delta, want)
			}
		case k == 8:
			c := m.Clone()
			ref.check(t, c, labels, where+" (clone)")
			if r.Intn(2) == 0 {
				// Go on with the clone; the original must not see its changes.
				left = append(left, leftModel{m, ref.clone()})
				m = c
			}
		}
		read := []automata.Interaction{x}
		if op%25 == 24 {
			read = labels
		}
		ref.check(t, m, read, fmt.Sprintf("%s op %d", where, op))
	}
	for _, l := range left {
		l.ref.check(t, l.m, labels, where+" (a model left for its clone)")
	}
}

type leftModel struct {
	m   *automata.Incomplete
	ref *literalRefusals
}

// TestRefusalReadsDoNotAllocate checks that the T̄ queries build nothing —
// no key string, no map entry — and that Block allocates nothing on a
// state whose bitset exists, for a universe label and for a label the
// universe lacks.
func TestRefusalReadsDoNotAllocate(t *testing.T) {
	inst, err := gen.New(7, gen.WideConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := automata.New(inst.Legacy.Name(), inst.Legacy.Inputs(), inst.Legacy.Outputs())
	s := a.MustAddState("s0")
	a.MarkInitial(s)
	ins, outs := a.Inputs().Signals(), a.Outputs().Signals()
	learned := automata.Interact(ins[3:4], outs[2:3])
	a.MustAddTransition(s, learned, s)
	m := automata.NewIncomplete(a)
	cu := automata.CompileUniverse(automata.Universe(automata.UniverseSingleton), a.Inputs(), a.Outputs())
	if err := m.BindUniverse(cu); err != nil {
		t.Fatal(err)
	}
	inUniverse := automata.Interact(ins[5:6], outs[1:2])
	outside := automata.Interact(ins[:2], outs[:1]) // two inputs: no singleton label
	for _, x := range []automata.Interaction{inUniverse, outside} {
		if err := m.Block(s, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SettleLabel(s, learned); err != nil {
		t.Fatal(err)
	}
	other := automata.Interact(ins[6:7], nil)
	for name, f := range map[string]func() bool{
		"IsBlocked(universe label)":     func() bool { return m.IsBlocked(s, inUniverse) },
		"IsBlocked(extension label)":    func() bool { return m.IsBlocked(s, outside) },
		"IsSettled":                     func() bool { return m.IsSettled(s, learned) },
		"Block(universe label) again":   func() bool { return m.Block(s, inUniverse) == nil && m.IsBlocked(s, inUniverse) },
		"Block(another universe label)": func() bool { return m.Block(s, other) == nil && m.IsBlocked(s, other) },
		"Block(extension label) again":  func() bool { return m.Block(s, outside) == nil && m.IsBlocked(s, outside) },
	} {
		ok := true
		if allocs := testing.AllocsPerRun(50, func() { ok = ok && f() }); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call", name, allocs)
		}
		if !ok {
			t.Errorf("%s reads false", name)
		}
	}
	if m.IsBlocked(s, automata.Interact(ins[:2], outs[1:2])) {
		t.Error("a label the universe lacks and T̄ does not hold reads as blocked")
	}
}

// TestRefuseUnderGrowsDeltaOnce checks that a refusal grows the learn
// delta once at most: refusing all 31 labels under one input of a wide
// alphabet, at a state whose T̄ bitset exists, allocates only the delta's
// one growth, and refusing them again, which blocks nothing new,
// allocates nothing.
func TestRefuseUnderGrowsDeltaOnce(t *testing.T) {
	inst, err := gen.New(7, gen.WideConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := automata.New(inst.Legacy.Name(), inst.Legacy.Inputs(), inst.Legacy.Outputs())
	const states = 51
	for i := 0; i < states; i++ {
		a.MustAddState(fmt.Sprintf("s%d", i))
	}
	a.MarkInitial(0)
	m := automata.NewIncomplete(a)
	cu := automata.CompileUniverse(automata.Universe(automata.UniverseSingleton), a.Inputs(), a.Outputs())
	if err := m.BindUniverse(cu); err != nil {
		t.Fatal(err)
	}
	ins := a.Inputs().Signals()
	var setup automata.LearnDelta
	for s := 0; s < states; s++ { // every state's bitset, from a refusal under another input
		if err := m.RefuseUnder(automata.StateID(s), automata.NewSignalSet(ins[0]), nil, false, &setup); err != nil {
			t.Fatal(err)
		}
	}
	in := automata.NewSignalSet(ins[1])
	want := 1 + a.Outputs().Len()
	refuse := func(s automata.StateID, n int) {
		var delta automata.LearnDelta
		if err := m.RefuseUnder(s, in, nil, false, &delta); err != nil || len(delta.NewBlocked) != n {
			t.Fatalf("refusal at s%d: %d labels blocked, err = %v; want %d", s, len(delta.NewBlocked), err, n)
		}
	}
	next := automata.StateID(0)
	if allocs := testing.AllocsPerRun(states-1, func() { refuse(next, want); next++ }); allocs > 1 {
		t.Errorf("a %d-label refusal allocates %.0f times, want at most 1", want, allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { refuse(0, 0) }); allocs != 0 {
		t.Errorf("a repeated refusal allocates %.0f times, want 0", allocs)
	}
}
