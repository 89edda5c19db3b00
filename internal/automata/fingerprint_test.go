package automata

import (
	"context"
	"sync"
	"testing"
)

func fpTestAutomaton(t *testing.T) *Automaton {
	t.Helper()
	a := New("m", NewSignalSet("go"), NewSignalSet("done"))
	s0 := a.MustAddState("s0")
	s1 := a.MustAddState("s1")
	a.MarkInitial(s0)
	a.MustAddTransition(s0, Interaction{In: NewSignalSet("go")}, s1)
	a.MustAddTransition(s1, Interaction{Out: NewSignalSet("done")}, s0)
	return a
}

func TestFingerprintDeterministic(t *testing.T) {
	if got, want := fpTestAutomaton(t).Fingerprint(), fpTestAutomaton(t).Fingerprint(); got != want {
		t.Fatalf("identical builds fingerprint differently: %x vs %x", got, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpTestAutomaton(t).Fingerprint()
	for name, mutate := range map[string]func(a *Automaton) *Automaton{
		"rename": func(a *Automaton) *Automaton {
			renamed, err := a.Rename("other", nil)
			if err != nil {
				t.Fatal(err)
			}
			return renamed
		},
		"extra state": func(a *Automaton) *Automaton {
			a.MustAddState("s2")
			return a
		},
		"extra transition": func(a *Automaton) *Automaton {
			a.MustAddTransition(StateID(1), Interaction{}, StateID(1))
			return a
		},
		"different initial": func(a *Automaton) *Automaton {
			a.MarkInitial(StateID(1))
			return a
		},
		"extra label": func(a *Automaton) *Automaton {
			a.AddLabel(StateID(0), "p")
			return a
		},
	} {
		a := mutate(fpTestAutomaton(t))
		if a.Fingerprint() == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}

	// Alphabet matters even with identical structure.
	b := New("m", NewSignalSet("go", "extra"), NewSignalSet("done"))
	s0 := b.MustAddState("s0")
	s1 := b.MustAddState("s1")
	b.MarkInitial(s0)
	b.MustAddTransition(s0, Interaction{In: NewSignalSet("go")}, s1)
	b.MustAddTransition(s1, Interaction{Out: NewSignalSet("done")}, s0)
	if b.Fingerprint() == base {
		t.Error("alphabet change: fingerprint unchanged")
	}
}

func TestIncompleteFingerprintSeesRefusals(t *testing.T) {
	m1 := NewIncomplete(fpTestAutomaton(t))
	m2 := NewIncomplete(fpTestAutomaton(t))
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("identical incomplete models fingerprint differently")
	}
	blocked := Interaction{In: NewSignalSet("go"), Out: NewSignalSet("done")}
	if _, err := m2.Learn(ObservedRun{Initial: "s0", Blocked: &blocked}, nil); err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Fatal("recorded refusal did not change the fingerprint")
	}
}

// TestIncompleteFingerprintNondetMarker checks that the nondeterministic
// marker changes an incomplete model's fingerprint, survives Clone, and
// leaves the fingerprints of deterministic models at their pinned values:
// closure records in a persistent memo store are keyed by them.
func TestIncompleteFingerprintNondetMarker(t *testing.T) {
	blocked := Interaction{In: NewSignalSet("go"), Out: NewSignalSet("done")}
	for _, tc := range []struct {
		name  string
		build func(a *Automaton) *Incomplete
		want  uint64
	}{
		{"empty", NewIncomplete, 0xd254c685cbe6505d},
		{"refusal", func(a *Automaton) *Incomplete {
			m := NewIncomplete(a)
			if _, err := m.Learn(ObservedRun{Initial: "s0", Blocked: &blocked}, nil); err != nil {
				t.Fatal(err)
			}
			return m
		}, 0x436070f7735bd45c},
		{"settled", func(a *Automaton) *Incomplete {
			m := NewIncomplete(a)
			if err := m.SettleLabel(0, Interaction{In: NewSignalSet("go")}); err != nil {
				t.Fatal(err)
			}
			return m
		}, 0x19211ef2de086ce0},
	} {
		det := tc.build(fpTestAutomaton(t))
		if got := det.Fingerprint(); got != tc.want {
			t.Errorf("%s: deterministic fingerprint = %#x, want %#x", tc.name, got, tc.want)
		}
		nd := tc.build(fpTestAutomaton(t))
		nd.nondet = true
		if nd.Fingerprint() == det.Fingerprint() {
			t.Errorf("%s: the nondeterministic marker did not change the fingerprint", tc.name)
		}
		if c := nd.Clone(); !c.nondet || c.Fingerprint() != nd.Fingerprint() {
			t.Errorf("%s: Clone dropped the nondeterministic marker", tc.name)
		}
	}
	if NewNondetIncomplete(fpTestAutomaton(t)).Fingerprint() == NewIncomplete(fpTestAutomaton(t)).Fingerprint() {
		t.Error("NewNondetIncomplete fingerprints like NewIncomplete")
	}
}

// TestUniverseFingerprint checks that the universe fingerprint is
// deterministic, sees the alphabet, and keeps pinned values for fixed
// (universe, alphabets) pairs: closure records in a persistent memo store
// are keyed by it, so a changed value would turn every stored closure into
// a miss after an upgrade.
func TestUniverseFingerprint(t *testing.T) {
	in, out := NewSignalSet("a"), NewSignalSet("b")
	u := Universe(UniverseSingleton)
	if CompileUniverse(u, in, out).fingerprint() != CompileUniverse(u, in, out).fingerprint() {
		t.Fatal("universe fingerprint not deterministic")
	}
	if CompileUniverse(u, in, out).fingerprint() == CompileUniverse(u, NewSignalSet("a", "c"), out).fingerprint() {
		t.Fatal("universe fingerprint ignores the alphabet")
	}

	in = NewSignalSet("convoyProposal", "breakConvoyProposal")
	out = NewSignalSet("convoyProposalRejected", "startConvoy")
	for _, tc := range []struct {
		name string
		u    InteractionUniverse
		want uint64
	}{
		{"singleton", Universe(UniverseSingleton), 0x99f434afeff38a55},
		{"powerset", Universe(UniversePowerSet), 0xbd5987d0c2806591},
		{"fixed", FixedUniverse{Interact(nil, nil),
			Interact([]Signal{"convoyProposal"}, []Signal{"startConvoy"}),
			Interact([]Signal{"other"}, nil)}, 0xbe0ede834db6def5},
	} {
		if got := CompileUniverse(tc.u, in, out).fingerprint(); got != tc.want {
			t.Errorf("%s: universe fingerprint = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestClosureRejectsForeignUniverse checks that a universe compiled over
// other alphabets than the model's is refused instead of emitting labels
// outside the closure's alphabets.
func TestClosureRejectsForeignUniverse(t *testing.T) {
	a := New("comp", NewSignalSet("go"), NewSignalSet("done"))
	a.MarkInitial(a.MustAddState("s0"))
	m := NewIncomplete(a)
	foreign := CompileUniverse(Universe(UniverseSingleton), NewSignalSet("go", "stop"), NewSignalSet("done"))
	if _, err := ChaoticClosureCtx(context.Background(), m, foreign, nil); err == nil {
		t.Fatal("closure over a foreign universe: no error")
	}
	if _, err := ChaoticClosureCtx(context.Background(), NewNondetIncomplete(a), foreign, nil); err == nil {
		t.Fatal("closure of a nondeterministic model over a foreign universe: no error")
	}
	ctxAuto := New("ctx", NewSignalSet("done"), NewSignalSet("go"))
	ctxAuto.MarkInitial(ctxAuto.MustAddState("c0"))
	if _, err := NewIncrementalSystemWith(nil, ctxAuto, m, foreign, nil); err == nil {
		t.Fatal("incremental system over a foreign universe: no error")
	}
}

// TestMemoClosureRoundTrip checks that a memoized closure is
// indistinguishable from a fresh build — including the state-part
// provenance that plain Clone would drop — and that the cache masters stay
// immutable under mutation of handed-out results.
func TestMemoClosureRoundTrip(t *testing.T) {
	buildModel := func() *Incomplete {
		a := New("comp", NewSignalSet("go"), NewSignalSet("done"))
		s0 := a.MustAddState("s0")
		a.MarkInitial(s0)
		return NewIncomplete(a)
	}
	u := CompileUniverse(Universe(UniverseSingleton), NewSignalSet("go"), NewSignalSet("done"))
	memo := NewMemoCache(nil)
	ctx := context.Background()

	fresh, err := ChaoticClosureCtx(ctx, buildModel(), u, memo)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := ChaoticClosureCtx(ctx, buildModel(), u, memo)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := memo.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("closure memo: hits=%d misses=%d", hits, misses)
	}
	if err := EquivalentReachable(cached, fresh); err != nil {
		t.Fatalf("memoized closure differs from fresh build: %v", err)
	}
	// Chaos marking must survive memoization: without it the analysis
	// could not tell learned behavior from chaotic over-approximation.
	foundChaos := false
	for id := StateID(0); int(id) < cached.NumStates(); id++ {
		if IsChaosState(cached, id) {
			foundChaos = true
		}
	}
	if !foundChaos {
		t.Fatal("memoized closure lost its chaos-state marking")
	}
	init := cached.Initial()[0]
	if got := cached.StateParts(init); len(got) != 1 || got[0] != "s0" {
		t.Fatalf("memoized result lost part provenance: %v", got)
	}

	// Mutating a handed-out result must not poison later hits.
	cached.MustAddState("scribble")
	cached.MustAddTransition(init, Interaction{}, init)
	again, err := ChaoticClosureCtx(ctx, buildModel(), u, memo)
	if err != nil {
		t.Fatal(err)
	}
	if err := EquivalentReachable(again, fresh); err != nil {
		t.Fatalf("cache master was mutated through a handout: %v", err)
	}
	if again.NumStates() != fresh.NumStates() {
		t.Fatalf("cache master grew through a handout: %d states, want %d", again.NumStates(), fresh.NumStates())
	}
}

func TestMemoNilSafe(t *testing.T) {
	var memo *MemoCache
	hits, misses, entries := memo.Stats()
	if hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("nil cache stats: %d/%d/%d", hits, misses, entries)
	}
	a := New("comp", NewSignalSet("go"), NewSignalSet("done"))
	a.MarkInitial(a.MustAddState("s0"))
	u := CompileUniverse(Universe(UniverseSingleton), a.Inputs(), a.Outputs())
	if _, err := ChaoticClosureCtx(context.Background(), NewIncomplete(a), u, memo); err != nil {
		t.Fatalf("ChaoticClosureCtx with nil memo: %v", err)
	}
}

// TestMemoUniverseCompiledOncePerAlphabets checks the per-cache universe
// table: a predefined universe over equal alphabets is compiled once and
// shared, other kinds or alphabets get their own entry, lookups leave the
// hit and miss counts alone, and a nil cache or a FixedUniverse compiles
// afresh on every call.
func TestMemoUniverseCompiledOncePerAlphabets(t *testing.T) {
	memo := NewMemoCache(nil)
	singleton := Universe(UniverseSingleton)
	first := memo.Universe(singleton, NewSignalSet("go", "stop"), NewSignalSet("done"))
	if again := memo.Universe(singleton, NewSignalSet("stop", "go"), NewSignalSet("done")); again != first {
		t.Fatal("equal alphabets compiled the singleton universe twice")
	}
	if other := memo.Universe(Universe(UniversePowerSet), NewSignalSet("go", "stop"), NewSignalSet("done")); other == first {
		t.Fatal("the power-set universe shares the singleton universe's entry")
	}
	if other := memo.Universe(singleton, NewSignalSet("go"), NewSignalSet("done")); other == first {
		t.Fatal("different alphabets share one compiled universe")
	}
	if hits, misses, entries := memo.Stats(); hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("universe lookups moved the memo stats: %d hits, %d misses, %d entries", hits, misses, entries)
	}

	var none *MemoCache
	a := none.Universe(singleton, NewSignalSet("go"), NewSignalSet("done"))
	if b := none.Universe(singleton, NewSignalSet("go"), NewSignalSet("done")); a == b {
		t.Fatal("a nil cache returned a shared compiled universe")
	}
	fixed := FixedUniverse{Interact([]Signal{"go"}, []Signal{"done"}), Interact(nil, nil)}
	x := memo.Universe(fixed, NewSignalSet("go"), NewSignalSet("done"))
	if y := memo.Universe(fixed, NewSignalSet("go"), NewSignalSet("done")); x == y {
		t.Fatal("a FixedUniverse was cached")
	}
	if want := CompileUniverse(fixed, NewSignalSet("go"), NewSignalSet("done")); x.fingerprint() != want.fingerprint() {
		t.Fatal("a FixedUniverse compiled through the cache differs from CompileUniverse")
	}
}

// TestMemoUniverseConcurrentLookups has batch workers look up one universe
// at once and race to its lazily computed fingerprint and interned labels:
// every caller must get the same compiled value and the same fingerprint
// (run under -race).
func TestMemoUniverseConcurrentLookups(t *testing.T) {
	memo := NewMemoCache(nil)
	const workers = 8
	got := make([]*CompiledUniverse, workers)
	fps := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = memo.Universe(Universe(UniverseSingleton), NewSignalSet("go", "stop"), NewSignalSet("done"))
			_ = got[w].labelsUnder(NewSignalSet("go"))
			fps[w] = got[w].fingerprint()
			if _, err := got[w].internedKeys(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	want := CompileUniverse(Universe(UniverseSingleton), NewSignalSet("go", "stop"), NewSignalSet("done")).fingerprint()
	for w := 0; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d got a second compilation of one universe", w)
		}
		if fps[w] != want {
			t.Fatalf("worker %d read fingerprint %#x, want %#x", w, fps[w], want)
		}
	}
}
