package automata

import (
	"strings"
	"testing"
)

// senderReceiver builds a pair of automata communicating over "msg":
// sender outputs msg, receiver consumes it.
func senderReceiver(t testing.TB) (*Automaton, *Automaton) {
	t.Helper()
	s := New("sender", EmptySet, NewSignalSet("msg"))
	s0 := s.MustAddState("ready")
	s1 := s.MustAddState("sent")
	s.MustAddTransition(s0, Interact(nil, []Signal{"msg"}), s1)
	s.MustAddTransition(s1, Interaction{}, s1) // idle forever after
	s.MarkInitial(s0)

	r := New("receiver", NewSignalSet("msg"), EmptySet)
	r0 := r.MustAddState("waiting")
	r1 := r.MustAddState("got")
	r.MustAddTransition(r0, Interact([]Signal{"msg"}, nil), r1)
	r.MustAddTransition(r1, Interaction{}, r1)
	r.MarkInitial(r0)
	return s, r
}

func TestComposeSynchronizes(t *testing.T) {
	s, r := senderReceiver(t)
	c, err := Compose("sys", s, r)
	if err != nil {
		t.Fatal(err)
	}
	// Reachable: (ready,waiting) -> (sent,got) -> (sent,got).
	if got, want := c.NumStates(), 2; got != want {
		t.Fatalf("NumStates = %d, want %d", got, want)
	}
	init := c.Initial()
	if len(init) != 1 {
		t.Fatalf("Initial = %v", init)
	}
	trans := c.TransitionsFrom(init[0])
	if len(trans) != 1 {
		t.Fatalf("expected one joint transition, got %d", len(trans))
	}
	// Joint label: A'' = ∅∪{msg}, B'' = {msg}∪∅.
	if !trans[0].Label.In.Equal(NewSignalSet("msg")) || !trans[0].Label.Out.Equal(NewSignalSet("msg")) {
		t.Fatalf("joint label = %v", trans[0].Label)
	}
}

func TestComposeBlocksUnmatchedCommunication(t *testing.T) {
	// Sender wants to emit msg but the receiver only has an idle loop:
	// no joint step for the send exists; only the idle pair step.
	s := New("sender", EmptySet, NewSignalSet("msg"))
	s0 := s.MustAddState("ready")
	s.MustAddTransition(s0, Interact(nil, []Signal{"msg"}), s0)
	s.MarkInitial(s0)

	r := New("receiver", NewSignalSet("msg"), EmptySet)
	r0 := r.MustAddState("deaf")
	r.MustAddTransition(r0, Interaction{}, r0)
	r.MarkInitial(r0)

	c := MustCompose("sys", s, r)
	// The only reachable composed state is the initial one, and it has no
	// outgoing transition: sender's send needs the receiver to take it in
	// the same step ((A'∩O)=B fails), receiver's idle step needs the
	// sender not to send.
	if got := c.NumStates(); got != 1 {
		t.Fatalf("NumStates = %d, want 1", got)
	}
	if _, deadlocked := c.DeadlockReachable(); !deadlocked {
		t.Fatal("expected composed deadlock for unmatched communication")
	}
}

func TestComposeRejectsSharedAlphabets(t *testing.T) {
	a := New("a", NewSignalSet("x"), EmptySet)
	sa := a.MustAddState("s")
	a.MarkInitial(sa)
	b := New("b", NewSignalSet("x"), EmptySet)
	sb := b.MustAddState("s")
	b.MarkInitial(sb)
	if _, err := Compose("c", a, b); err == nil {
		t.Fatal("expected error for shared inputs")
	}

	c := New("c", EmptySet, NewSignalSet("y"))
	sc := c.MustAddState("s")
	c.MarkInitial(sc)
	d := New("d", EmptySet, NewSignalSet("y"))
	sd := d.MustAddState("s")
	d.MarkInitial(sd)
	if _, err := Compose("e", c, d); err == nil {
		t.Fatal("expected error for shared outputs")
	}
}

func TestComposeRequiresInitialStates(t *testing.T) {
	a := New("a", EmptySet, EmptySet)
	a.MustAddState("s")
	b := New("b", EmptySet, EmptySet)
	sb := b.MustAddState("s")
	b.MarkInitial(sb)
	if _, err := Compose("c", a, b); err == nil {
		t.Fatal("expected error for missing initial state")
	}
}

func TestComposeLabelsAreUnion(t *testing.T) {
	s, r := senderReceiver(t)
	s.LabelStatesByName()
	r.LabelStatesByName()
	c := MustCompose("sys", s, r)
	init := c.Initial()[0]
	if !c.HasLabel(init, "sender.ready") || !c.HasLabel(init, "receiver.waiting") {
		t.Fatalf("composed labels = %v", c.Labels(init))
	}
}

func TestComposeProvenanceAndProjection(t *testing.T) {
	s, r := senderReceiver(t)
	c := MustCompose("sys", s, r)
	leaves := c.Leaves()
	if len(leaves) != 2 || leaves[0] != "sender" || leaves[1] != "receiver" {
		t.Fatalf("Leaves = %v", leaves)
	}
	in, out, ok := c.LeafAlphabet("receiver")
	if !ok || !in.Contains("msg") || !out.IsEmpty() {
		t.Fatalf("LeafAlphabet(receiver) = %v/%v/%v", in, out, ok)
	}
	if _, _, ok := c.LeafAlphabet("nope"); ok {
		t.Fatal("LeafAlphabet should fail for unknown leaf")
	}

	init := c.Initial()[0]
	next := c.TransitionsFrom(init)[0]
	run := Run{States: []StateID{init, next.To}, Steps: []Interaction{next.Label}}

	proj, err := c.ProjectRun(run, "sender")
	if err != nil {
		t.Fatal(err)
	}
	if proj.StateNames[0] != "ready" || proj.StateNames[1] != "sent" {
		t.Fatalf("projected states = %v", proj.StateNames)
	}
	// Sender's share of the joint step: no input, output msg.
	if !proj.Steps[0].In.IsEmpty() || !proj.Steps[0].Out.Contains("msg") {
		t.Fatalf("projected step = %v", proj.Steps[0])
	}

	if _, err := c.ProjectRun(run, "nope"); err == nil {
		t.Fatal("projection onto unknown leaf accepted")
	}
}

func TestComposeAll(t *testing.T) {
	s, r := senderReceiver(t)
	c, err := ComposeAll("sys", s, r)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 2 {
		t.Fatalf("NumStates = %d", c.NumStates())
	}
	single, err := ComposeAll("solo", s)
	if err != nil {
		t.Fatal(err)
	}
	if single.Name() != "solo" || single.NumStates() != s.NumStates() {
		t.Fatal("single-automaton ComposeAll should clone")
	}
	if _, err := ComposeAll("none"); err == nil {
		t.Fatal("empty ComposeAll accepted")
	}
}

func TestRenderStatesListingFormat(t *testing.T) {
	s, r := senderReceiver(t)
	c := MustCompose("sys", s, r)
	init := c.Initial()[0]
	tr := c.TransitionsFrom(init)[0]
	run := Run{States: []StateID{init, tr.To}, Steps: []Interaction{tr.Label}}
	text := run.RenderStates(c)
	if !strings.Contains(text, "sender.ready, receiver.waiting") {
		t.Fatalf("RenderStates missing composed state line:\n%s", text)
	}
	if !strings.Contains(text, "sender.sent, receiver.got") {
		t.Fatalf("RenderStates missing successor line:\n%s", text)
	}
}

func TestUniqueNameDisambiguates(t *testing.T) {
	a := newProduct("a", &internAlphabet{})
	a.index["x"] = 0
	if got := uniqueName(a, "x"); got == "x" {
		t.Fatal("uniqueName returned a colliding name")
	}
	if got := uniqueName(a, "fresh"); got != "fresh" {
		t.Fatalf("uniqueName altered a fresh name: %q", got)
	}
}
