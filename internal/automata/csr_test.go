package automata

import (
	"math/rand"
	"testing"
)

// randomCSRAutomaton builds a random multi-edge automaton (parallel edges
// and deadlock states included) for cross-checking the CSR view against
// the adjacency lists.
func randomCSRAutomaton(t *testing.T, rng *rand.Rand, n int) *Automaton {
	t.Helper()
	a := New("csr", NewSignalSet("x"), NewSignalSet("y"))
	for i := 0; i < n; i++ {
		a.MustAddState(stateName(i))
	}
	labels := []Interaction{
		Interact([]Signal{"x"}, nil),
		Interact(nil, []Signal{"y"}),
		Interact([]Signal{"x"}, []Signal{"y"}),
	}
	for s := 0; s < n; s++ {
		if rng.Intn(5) == 0 {
			continue // deadlock state
		}
		deg := rng.Intn(4) + 1
		for i := 0; i < deg; i++ {
			// Duplicate (from,label,to) triples are rejected; skip them.
			_ = a.AddTransition(StateID(s), labels[rng.Intn(len(labels))], StateID(rng.Intn(n)))
		}
	}
	a.MarkInitial(0)
	return a
}

func stateName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}

func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := randomCSRAutomaton(t, rng, 1+rng.Intn(40))
		c := a.CSR()
		if c.NumStates() != a.NumStates() {
			t.Fatalf("NumStates = %d, want %d", c.NumStates(), a.NumStates())
		}
		if c.NumEdges() != a.NumTransitions() {
			t.Fatalf("NumEdges = %d, want %d", c.NumEdges(), a.NumTransitions())
		}
		// Forward rows match adjacency order exactly.
		preds := make(map[int32][]int32)
		for s := 0; s < a.NumStates(); s++ {
			row := a.TransitionsFrom(StateID(s))
			if c.OutDegree(s) != len(row) {
				t.Fatalf("OutDegree(%d) = %d, want %d", s, c.OutDegree(s), len(row))
			}
			succ := c.Succ(s)
			for i, tr := range row {
				if succ[i] != int32(tr.To) {
					t.Fatalf("Succ(%d)[%d] = %d, want %d", s, i, succ[i], tr.To)
				}
				preds[int32(tr.To)] = append(preds[int32(tr.To)], int32(s))
			}
		}
		// Reverse rows hold each edge's source, grouped by target in
		// source-then-adjacency order (which is exactly the order the
		// forward sweep above appended them).
		for s := 0; s < a.NumStates(); s++ {
			got, want := c.Pred(s), preds[int32(s)]
			if len(got) != len(want) {
				t.Fatalf("len(Pred(%d)) = %d, want %d", s, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Pred(%d)[%d] = %d, want %d", s, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCSRCachedAndInvalidated(t *testing.T) {
	a := pingPong(t)
	c1 := a.CSR()
	if c2 := a.CSR(); c2 != c1 {
		t.Fatal("CSR not cached across calls")
	}
	// A structural mutation must drop the snapshot.
	extra := a.MustAddState("extra")
	c3 := a.CSR()
	if c3 == c1 {
		t.Fatal("CSR not invalidated by AddState")
	}
	if c3.NumStates() != a.NumStates() {
		t.Fatalf("rebuilt CSR has %d states, want %d", c3.NumStates(), a.NumStates())
	}
	a.MustAddTransition(extra, Interact([]Signal{"ping"}, nil), extra)
	c4 := a.CSR()
	if c4 == c3 {
		t.Fatal("CSR not invalidated by AddTransition")
	}
	if got := c4.OutDegree(int(extra)); got != 1 {
		t.Fatalf("OutDegree(extra) = %d, want 1", got)
	}
}

func TestCSRDoesNotPerturbFingerprintOrTransitions(t *testing.T) {
	a := pingPong(t)
	before := a.Fingerprint()
	wantTrans := a.Transitions()
	_ = a.CSR()
	if got := a.Fingerprint(); got != before {
		t.Fatalf("Fingerprint changed by CSR build: %x != %x", got, before)
	}
	gotTrans := a.Transitions()
	if len(gotTrans) != len(wantTrans) {
		t.Fatalf("Transitions length changed: %d != %d", len(gotTrans), len(wantTrans))
	}
	for i := range gotTrans {
		g, w := gotTrans[i], wantTrans[i]
		if g.From != w.From || g.To != w.To || !g.Label.Equal(w.Label) {
			t.Fatalf("Transitions[%d] changed: %+v != %+v", i, g, w)
		}
	}
	// Transitions must keep returning a fresh copy: callers mutate the
	// returned slice, and change the automaton while ranging over it.
	gotTrans[0].To = NoState
	if a.Transitions()[0].To == NoState {
		t.Fatal("Transitions aliases the adjacency")
	}
}

func TestIncrementalApplyInvalidatesDerived(t *testing.T) {
	// The incremental system patches closure/product adjacency in place;
	// Apply must drop the cached CSR so later checks see the new edges.
	// Exercised indirectly: the differential CTL suite and incremental
	// tests run checkers over patched systems. Here we just confirm the
	// plumbing compiles against a trivial automaton.
	a := pingPong(t)
	c := a.CSR()
	a.invalidateDerived()
	if a.CSR() == c {
		t.Fatal("invalidateDerived did not drop the cached CSR")
	}
}
