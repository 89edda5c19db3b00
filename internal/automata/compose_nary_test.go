package automata

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
)

// threeParty builds a relay: a → b → c, where a emits m1 consumed by b,
// and b emits m2 consumed by c, while the third party idles in each step.
func threeParty(t *testing.T) (*Automaton, *Automaton, *Automaton) {
	t.Helper()
	a := New("a", EmptySet, NewSignalSet("m1"))
	a0 := a.MustAddState("a0")
	a1 := a.MustAddState("a1")
	a.MustAddTransition(a0, Interact(nil, []Signal{"m1"}), a1)
	a.MustAddTransition(a1, Interaction{}, a1)
	a.MarkInitial(a0)

	b := New("b", NewSignalSet("m1"), NewSignalSet("m2"))
	b0 := b.MustAddState("b0")
	b1 := b.MustAddState("b1")
	b2 := b.MustAddState("b2")
	b.MustAddTransition(b0, Interact([]Signal{"m1"}, nil), b1)
	b.MustAddTransition(b1, Interact(nil, []Signal{"m2"}), b2)
	b.MustAddTransition(b2, Interaction{}, b2)
	b.MarkInitial(b0)

	c := New("c", NewSignalSet("m2"), EmptySet)
	c0 := c.MustAddState("c0")
	c1 := c.MustAddState("c1")
	c.MustAddTransition(c0, Interaction{}, c0)
	c.MustAddTransition(c0, Interact([]Signal{"m2"}, nil), c1)
	c.MustAddTransition(c1, Interaction{}, c1)
	c.MarkInitial(c0)
	return a, b, c
}

func TestComposeAllThreeParties(t *testing.T) {
	a, b, c := threeParty(t)
	sys, err := ComposeAll("sys", a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	// The relay proceeds: (a0,b0,c0) -> (a1,b1,c0) -> (a1,b2,c1) -> loop.
	if got := sys.NumStates(); got != 3 {
		t.Fatalf("NumStates = %d, want 3:\n%s", got, sys.Dot())
	}
	if _, dead := sys.DeadlockReachable(); dead {
		t.Fatal("relay should be deadlock-free")
	}
	if got := len(sys.Leaves()); got != 3 {
		t.Fatalf("leaves = %v", sys.Leaves())
	}
	// First joint step: a sends m1, b consumes it, c idles.
	init := sys.Initial()[0]
	ts := sys.TransitionsFrom(init)
	if len(ts) != 1 {
		t.Fatalf("initial joint steps = %d", len(ts))
	}
	if !ts[0].Label.Out.Contains("m1") || !ts[0].Label.In.Contains("m1") {
		t.Fatalf("joint label = %v", ts[0].Label)
	}
}

func TestComposeAllRejectsFoldSemantics(t *testing.T) {
	// The binary fold would be wrong here: composing a with b first leaves
	// m1 "unconsumed" for c. The n-ary product must still find the joint
	// step; the fold must produce an immediate deadlock instead. This test
	// documents the difference.
	a, b, c := threeParty(t)
	ab, err := Compose("ab", a, b)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := Compose("fold", ab, c)
	if err != nil {
		t.Fatal(err)
	}
	// In the fold, the first step (m1 exchange inside ab, Out={m1}) needs
	// c to consume m1, which it cannot: the fold deadlocks at once.
	if _, dead := fold.DeadlockReachable(); !dead {
		t.Fatal("fold unexpectedly behaves like the n-ary product")
	}
	nary, err := ComposeAll("nary", a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, dead := nary.DeadlockReachable(); dead {
		t.Fatal("n-ary product deadlocked")
	}
}

// TestComposeAllIdlePart checks the n-ary rule's consumption condition:
// a joint step whose output no part reads is not a step, so an idle part
// (one that only takes the empty step) changes no product, while a part
// that reads the output enables the step.
func TestComposeAllIdlePart(t *testing.T) {
	a := New("a", EmptySet, NewSignalSet("x"))
	a0, a1 := a.MustAddState("a0"), a.MustAddState("a1")
	a.MustAddTransition(a0, Interact(nil, []Signal{"x"}), a1)
	a.MarkInitial(a0)
	idle := func(name string) *Automaton {
		m := New(name, EmptySet, EmptySet)
		s := m.MustAddState(name + "0")
		m.MustAddTransition(s, Interaction{}, s)
		m.MarkInitial(s)
		return m
	}
	reader := New("r", NewSignalSet("x"), EmptySet)
	r0 := reader.MustAddState("r0")
	reader.MustAddTransition(r0, Interact([]Signal{"x"}, nil), r0)
	reader.MarkInitial(r0)

	for _, tc := range []struct {
		parts         []*Automaton
		states, edges int
	}{
		{[]*Automaton{a, idle("b")}, 1, 0},
		{[]*Automaton{a, idle("b"), idle("c")}, 1, 0},
		{[]*Automaton{a, idle("b"), reader}, 2, 1},
	} {
		sys, err := ComposeAll("sys", tc.parts...)
		if err != nil {
			t.Fatal(err)
		}
		if sys.NumStates() != tc.states || sys.NumTransitions() != tc.edges {
			t.Fatalf("%d parts: %d states and %d transitions, want %d and %d:\n%s",
				len(tc.parts), sys.NumStates(), sys.NumTransitions(), tc.states, tc.edges, sys.Dot())
		}
	}
}

func TestComposeAllValidation(t *testing.T) {
	a, b, c := threeParty(t)
	if _, err := ComposeAll("sys", a, b, b.Clone("b2")); err == nil {
		t.Fatal("shared alphabets accepted")
	}
	noInit := New("ni", EmptySet, EmptySet)
	noInit.MustAddState("s")
	if _, err := ComposeAll("sys", a, b, noInit); err == nil {
		t.Fatal("missing initial state accepted")
	}
	_ = c
}

func TestComposeAllSingleClones(t *testing.T) {
	a, _, _ := threeParty(t)
	solo, err := ComposeAll("solo", a)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Name() != "solo" || solo.NumStates() != a.NumStates() {
		t.Fatal("single-part ComposeAll should clone")
	}
	solo.MustAddState("extra")
	if a.State("extra") != NoState {
		t.Fatal("clone shares storage")
	}
}

func TestComposeAllProjection(t *testing.T) {
	a, b, c := threeParty(t)
	sys, err := ComposeAll("sys", a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	init := sys.Initial()[0]
	tr := sys.TransitionsFrom(init)[0]
	run := Run{States: []StateID{init, tr.To}, Steps: []Interaction{tr.Label}}
	proj, err := sys.ProjectRun(run, "b")
	if err != nil {
		t.Fatal(err)
	}
	if proj.StateNames[0] != "b0" || proj.StateNames[1] != "b1" {
		t.Fatalf("projection = %v", proj.StateNames)
	}
	if !proj.Steps[0].In.Contains("m1") {
		t.Fatalf("projected step = %v", proj.Steps[0])
	}
}

func TestComposeAllCtx(t *testing.T) {
	parts := []*Automaton{branchy("x", 4), branchy("y", 4), branchy("z", 4)}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComposeAllCtx(canceled, "sys", parts...); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v, want one wrapping context.Canceled", err)
	}

	want, err := ComposeAll("sys", parts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComposeAllCtx(context.Background(), "sys", parts...)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := EncodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := EncodeJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("ComposeAllCtx product differs from ComposeAll's:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
	for s := 0; s < want.NumStates(); s++ {
		if !slices.Equal(got.StateParts(StateID(s)), want.StateParts(StateID(s))) {
			t.Fatalf("state %d provenance %v, want %v", s, got.StateParts(StateID(s)), want.StateParts(StateID(s)))
		}
	}
}
