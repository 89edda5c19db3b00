package automata

import (
	"context"
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

// TestUniverseFingerprint checks that the universe fingerprint is
// deterministic, sees the alphabet, and keeps pinned values for fixed
// (universe, alphabets) pairs: closure records in a persistent memo store
// are keyed by it, so a changed value would turn every stored closure into
// a miss after an upgrade.
func TestUniverseFingerprint(t *testing.T) {
	in, out := NewSignalSet("a"), NewSignalSet("b")
	u := Universe(UniverseSingleton)
	if CompileUniverse(u, in, out).fingerprint != CompileUniverse(u, in, out).fingerprint {
		t.Fatal("universe fingerprint not deterministic")
	}
	if CompileUniverse(u, in, out).fingerprint == CompileUniverse(u, NewSignalSet("a", "c"), out).fingerprint {
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
		if got := CompileUniverse(tc.u, in, out).fingerprint; got != tc.want {
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
	if _, err := ChaoticClosureNondetCtx(context.Background(), m, foreign); err == nil {
		t.Fatal("nondet closure over a foreign universe: no error")
	}
	ctxAuto := New("ctx", NewSignalSet("done"), NewSignalSet("go"))
	ctxAuto.MarkInitial(ctxAuto.MustAddState("c0"))
	if _, err := NewIncrementalSystemWith(nil, ctxAuto, m, foreign, nil); err == nil {
		t.Fatal("incremental system over a foreign universe: no error")
	}
}

// TestMemoComposeRoundTrip checks that a memoized composition is
// indistinguishable from a fresh build — including the state-part
// provenance that plain Clone would drop — and that the cache masters stay
// immutable under mutation of handed-out results.
func TestMemoComposeRoundTrip(t *testing.T) {
	build := func() (*Automaton, *Automaton) {
		s := New("sender", EmptySet, NewSignalSet("msg"))
		s0 := s.MustAddState("ready")
		s1 := s.MustAddState("sent")
		s.MustAddTransition(s0, Interact(nil, []Signal{"msg"}), s1)
		s.MustAddTransition(s1, Interaction{}, s1)
		s.MarkInitial(s0)
		r := New("receiver", NewSignalSet("msg"), EmptySet)
		r0 := r.MustAddState("waiting")
		r1 := r.MustAddState("got")
		r.MustAddTransition(r0, Interact([]Signal{"msg"}, nil), r1)
		r.MustAddTransition(r1, Interaction{}, r1)
		r.MarkInitial(r0)
		return s, r
	}

	memo := NewMemoCache(nil)
	ctx := context.Background()

	s, r := build()
	fresh, err := ComposeCtx(ctx, "sys", s, r, memo)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, entries := memo.Stats(); hits != 0 || misses != 1 || entries != 1 {
		t.Fatalf("after first compose: hits=%d misses=%d entries=%d", hits, misses, entries)
	}

	s2, r2 := build()
	cached, err := ComposeCtx(ctx, "sys", s2, r2, memo)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := memo.Stats(); hits != 1 {
		t.Fatalf("second compose of identical operands missed the cache")
	}
	if err := EquivalentReachable(cached, fresh); err != nil {
		t.Fatalf("memoized composition differs from fresh build: %v", err)
	}
	init := cached.Initial()[0]
	if got := cached.StateParts(init); len(got) != 2 || got[0] != "ready" || got[1] != "waiting" {
		t.Fatalf("memoized result lost part provenance: %v", got)
	}

	// Mutating a handed-out result must not poison later hits.
	cached.MustAddState("scribble")
	again, err := ComposeCtx(ctx, "sys", s, r, memo)
	if err != nil {
		t.Fatal(err)
	}
	if err := EquivalentReachable(again, fresh); err != nil {
		t.Fatalf("cache master was mutated through a handout: %v", err)
	}
}

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
}

func TestMemoNilSafe(t *testing.T) {
	var memo *MemoCache
	hits, misses, entries := memo.Stats()
	if hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("nil cache stats: %d/%d/%d", hits, misses, entries)
	}
	s := New("s", EmptySet, EmptySet)
	s.MarkInitial(s.MustAddState("x"))
	r := New("r", EmptySet, EmptySet)
	r.MarkInitial(r.MustAddState("y"))
	if _, err := ComposeCtx(context.Background(), "sys", s, r, nil); err != nil {
		t.Fatalf("ComposeCtx with nil memo: %v", err)
	}
}
