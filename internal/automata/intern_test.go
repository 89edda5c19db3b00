package automata

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestInternerRoundTrip(t *testing.T) {
	in, err := NewInterner(NewSignalSet("a", "c"), NewSignalSet("b", "d"))
	if err != nil {
		t.Fatalf("interner refused a 4-signal alphabet: %v", err)
	}
	sets := []SignalSet{
		EmptySet,
		NewSignalSet("a"),
		NewSignalSet("b", "c"),
		NewSignalSet("a", "b", "c", "d"),
	}
	for _, s := range sets {
		m, ok := in.Mask(s)
		if !ok {
			t.Fatalf("Mask(%v) rejected", s)
		}
		if got := in.Set(m); !got.Equal(s) {
			t.Fatalf("Set(Mask(%v)) = %v", s, got)
		}
	}
	// Decoded sets are canonical: repeated decodes share one value.
	m, _ := in.Mask(NewSignalSet("b", "c"))
	s1, s2 := in.Set(m), in.Set(m)
	if &s1.signals[0] != &s2.signals[0] {
		t.Fatal("repeated Set decode did not share the cached slice")
	}
}

func TestInternerMaskOperationsMatchSetOperations(t *testing.T) {
	a := NewSignalSet("x", "y")
	b := NewSignalSet("y", "z")
	in, err := NewInterner(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := in.Mask(a)
	mb, _ := in.Mask(b)
	if got := in.Set(ma.or(mb)); !got.Equal(a.Union(b)) {
		t.Fatalf("union mask = %v, want %v", got, a.Union(b))
	}
	if got := in.Set(ma.and(mb)); !got.Equal(a.Intersect(b)) {
		t.Fatalf("intersect mask = %v, want %v", got, a.Intersect(b))
	}
}

// TestInternerMasksSpanBothWords checks the set algebra on masks whose
// members straddle the word boundary (bits 63 and 64) and fill the top word.
func TestInternerMasksSpanBothWords(t *testing.T) {
	in, err := NewInterner(NewSignalSet(signalRange(0, MaxInternSignals)...))
	if err != nil {
		t.Fatal(err)
	}
	sets := []SignalSet{
		EmptySet,
		NewSignalSet(signalRange(0, 64)...),
		NewSignalSet(signalRange(63, 65)...),
		NewSignalSet(signalRange(64, MaxInternSignals)...),
		NewSignalSet(signalRange(0, MaxInternSignals)...),
		NewSignalSet("s000", "s127"),
	}
	for _, a := range sets {
		ma, ok := in.Mask(a)
		if !ok {
			t.Fatalf("Mask(%v) rejected", a)
		}
		if got := in.Set(ma); !got.Equal(a) {
			t.Fatalf("Set(Mask(%v)) = %v", a, got)
		}
		if ma.count() != a.Len() {
			t.Fatalf("count(Mask(%v)) = %d, want %d", a, ma.count(), a.Len())
		}
		for _, b := range sets {
			mb, _ := in.Mask(b)
			if got := in.Set(ma.or(mb)); !got.Equal(a.Union(b)) {
				t.Fatalf("%v ∪ %v = %v", a, b, got)
			}
			if got := in.Set(ma.and(mb)); !got.Equal(a.Intersect(b)) {
				t.Fatalf("%v ∩ %v = %v", a, b, got)
			}
		}
	}
}

// signalRange returns the signals s<lo> .. s<hi-1>, zero-padded so that
// canonical order matches numeric order.
func signalRange(lo, hi int) []Signal {
	var out []Signal
	for i := lo; i < hi; i++ {
		out = append(out, Signal(fmt.Sprintf("s%03d", i)))
	}
	return out
}

func TestInternerRejectsForeignSignalsAndWideAlphabets(t *testing.T) {
	in, err := NewInterner(NewSignalSet("a"))
	if err != nil {
		t.Fatalf("interner refused singleton alphabet: %v", err)
	}
	if _, ok := in.Mask(NewSignalSet("zz")); ok {
		t.Fatal("Mask accepted a signal outside the alphabet")
	}
	if _, ok := in.Key(Interaction{In: NewSignalSet("zz")}); ok {
		t.Fatal("Key accepted a signal outside the alphabet")
	}

	// 128 signals split over two alphabets fit; the 129th does not.
	if _, err := NewInterner(NewSignalSet(signalRange(0, 70)...), NewSignalSet(signalRange(70, 128)...)); err != nil {
		t.Fatalf("interner refused a 128-signal alphabet: %v", err)
	}
	_, err = NewInterner(NewSignalSet(signalRange(0, 70)...), NewSignalSet(signalRange(70, 129)...))
	if !errors.Is(err, ErrAlphabetTooWide) {
		t.Fatalf("NewInterner(129 signals) = %v, want ErrAlphabetTooWide", err)
	}
}

func TestInternerLabelCaching(t *testing.T) {
	in, _ := NewInterner(NewSignalSet("a"), NewSignalSet("b"))
	x := Interaction{In: NewSignalSet("a"), Out: NewSignalSet("b")}
	k, ok := in.Key(x)
	if !ok {
		t.Fatal("Key rejected in-alphabet interaction")
	}
	got := in.Label(k)
	if got.Key() != x.Key() {
		t.Fatalf("Label(Key(%v)) = %v", x, got)
	}
	// Distinct keys for distinct interactions.
	k2, _ := in.Key(Interaction{Out: NewSignalSet("b")})
	if k == k2 {
		t.Fatal("distinct interactions share an intern key")
	}
}

func TestMaskAdjacencyPreservesOrder(t *testing.T) {
	a := New("m", NewSignalSet("i"), NewSignalSet("o"))
	s0 := a.MustAddState("s0")
	s1 := a.MustAddState("s1")
	a.MarkInitial(s0)
	a.MustAddTransition(s0, Interaction{In: NewSignalSet("i")}, s1)
	a.MustAddTransition(s0, Interaction{Out: NewSignalSet("o")}, s0)
	a.MustAddTransition(s1, Interaction{In: NewSignalSet("i"), Out: NewSignalSet("o")}, s0)

	in, err := NewInterner(a.Inputs(), a.Outputs())
	if err != nil {
		t.Fatal(err)
	}
	adj, err := maskAdjacency(a, in)
	if err != nil {
		t.Fatalf("maskAdjacency rejected in-alphabet labels: %v", err)
	}
	for s, ts := range adj {
		want := a.TransitionsFrom(StateID(s))
		if len(ts) != len(want) {
			t.Fatalf("state %d: %d masked transitions, want %d", s, len(ts), len(want))
		}
		for i, mt := range ts {
			k, _ := in.Key(want[i].Label)
			if mt.in != k.In || mt.out != k.Out || mt.to != want[i].To {
				t.Fatalf("state %d transition %d: masked %v, want %v", s, i, mt, want[i])
			}
		}
	}
}

// TestAlphabetBeyondInternerIsAnError checks that every construction that
// interns its labels reports an alphabet of 129 signals as an error
// wrapping ErrAlphabetTooWide instead of panicking or falling back. Each
// operand fits an interner on its own; only their union is too wide.
func TestAlphabetBeyondInternerIsAnError(t *testing.T) {
	single := func(name string, inputs, outputs SignalSet) *Automaton {
		a := New(name, inputs, outputs)
		a.MarkInitial(a.MustAddState("s0"))
		return a
	}
	left := single("left", NewSignalSet(signalRange(0, 65)...), EmptySet)
	right := single("right", EmptySet, NewSignalSet(signalRange(65, 129)...))
	third := single("third", EmptySet, EmptySet)
	model := NewIncomplete(single("model", EmptySet, NewSignalSet(signalRange(65, 129)...)))
	wideModel := NewIncomplete(single("wide", NewSignalSet(signalRange(0, 65)...), NewSignalSet(signalRange(65, 129)...)))
	singleton := Universe(UniverseSingleton)

	checks := map[string]func() error{
		"Compose":    func() error { _, err := Compose("sys", left, right); return err },
		"ComposeAll": func() error { _, err := ComposeAll("sys", left, right, third); return err },
		"ChaoticClosureCtx": func() error {
			u := CompileUniverse(singleton, wideModel.Automaton().Inputs(), wideModel.Automaton().Outputs())
			_, err := ChaoticClosureCtx(context.Background(), wideModel, u, nil)
			return err
		},
		"ChaoticClosureCtx+nondet": func() error {
			nd := NewNondetIncomplete(wideModel.Automaton())
			u := CompileUniverse(singleton, nd.Automaton().Inputs(), nd.Automaton().Outputs())
			_, err := ChaoticClosureCtx(context.Background(), nd, u, NewMemoCache(nil))
			return err
		},
		"NewIncrementalSystemWith": func() error {
			u := CompileUniverse(singleton, model.Automaton().Inputs(), model.Automaton().Outputs())
			_, err := NewIncrementalSystemWith(context.Background(), left, model, u, nil)
			return err
		},
		"Refines": func() error { _, _, err := Refines(left, right); return err },
	}
	for name, run := range checks {
		if err := run(); !errors.Is(err, ErrAlphabetTooWide) {
			t.Errorf("%s over 129 signals = %v, want ErrAlphabetTooWide", name, err)
		}
	}
}

// TestProductsShareAlphabets checks that two products over equal factor
// alphabets (equal sets in distinct slices) share their input and output
// sets, taken from the interner alphabet over the factors' pairs rather
// than united per product, and that those are the unions of the factors'.
func TestProductsShareAlphabets(t *testing.T) {
	factors := func() []*Automaton {
		left := New("left", NewSignalSet("a", "c"), NewSignalSet("x"))
		right := New("right", NewSignalSet("b", "x"), NewSignalSet("c", "y"))
		for _, m := range []*Automaton{left, right} {
			m.MarkInitial(m.MustAddState("s0"))
		}
		return []*Automaton{left, right}
	}
	first, err := ComposeAll("first", factors()...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ComposeAll("second", factors()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		first, second SignalSet
		want          SignalSet
	}{
		{"inputs", first.Inputs(), second.Inputs(), NewSignalSet("a", "b", "c", "x")},
		{"outputs", first.Outputs(), second.Outputs(), NewSignalSet("c", "x", "y")},
	} {
		if !c.first.Equal(c.want) || !c.second.Equal(c.want) {
			t.Errorf("%s = %v and %v, want %v", c.name, c.first, c.second, c.want)
		}
		if &c.first.signals[0] != &c.second.signals[0] {
			t.Errorf("the products' %s are separate copies", c.name)
		}
	}
}

// TestInternersShareAlphabets checks the shared alphabet part: interners
// over equal alphabet tuples (equal sets in distinct slices) share one
// alphabet, also when built concurrently (run under -race), a different
// tuple gets its own, each interner keeps its own decode caches, and the
// cache stays within its bound.
func TestInternersShareAlphabets(t *testing.T) {
	tuple := func() []SignalSet {
		return []SignalSet{NewSignalSet("b", "a"), NewSignalSet("x"), NewSignalSet("c", "a")}
	}
	first, err := NewInterner(tuple()...)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*Interner, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in, err := NewInterner(tuple()...)
			if err != nil {
				t.Error(err)
				return
			}
			in.Label(InternKey{In: SetMask{lo: 1}})
			got[w] = in
		}(w)
	}
	wg.Wait()
	for w, in := range got {
		if in == nil || in.internAlphabet != first.internAlphabet {
			t.Fatalf("interner %d has its own alphabet", w)
		}
	}
	if first.labels != nil || first.sets != nil {
		t.Fatal("decoding on one interner filled another's caches")
	}
	other, err := NewInterner(NewSignalSet("a", "b", "c"), NewSignalSet("x"))
	if err != nil {
		t.Fatal(err)
	}
	if other.internAlphabet == first.internAlphabet {
		t.Fatal("a different alphabet tuple shares an alphabet")
	}
	if fmt.Sprint(other.signals) != fmt.Sprint(first.signals) {
		t.Fatalf("alphabets %v and %v of one union differ", other.signals, first.signals)
	}
	for i := 0; i < 2*maxSharedAlphabets; i++ {
		if _, err := NewInterner(NewSignalSet(Signal(fmt.Sprintf("s%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	sharedAlphabets.mu.Lock()
	size := sharedAlphabets.size
	sharedAlphabets.mu.Unlock()
	if size > maxSharedAlphabets {
		t.Fatalf("the alphabet cache holds %d tuples, bound %d", size, maxSharedAlphabets)
	}
}
