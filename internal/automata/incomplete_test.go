package automata

import (
	"math/rand"
	"strings"
	"testing"
)

func newIncompletePingPong(t *testing.T) *Incomplete {
	t.Helper()
	return NewIncomplete(pingPong(t))
}

func TestIncompleteBlockAndConsistency(t *testing.T) {
	m := newIncompletePingPong(t)
	a := m.Automaton()
	idle := a.State("idle")
	ping := Interact([]Signal{"ping"}, []Signal{"pong"})
	done := Interact(nil, []Signal{"done"})

	// Blocking an enabled interaction violates Definition 6.
	if err := m.Block(idle, ping); err == nil {
		t.Fatal("blocking an enabled interaction accepted")
	}
	if err := m.Block(idle, done); err != nil {
		t.Fatal(err)
	}
	if !m.IsBlocked(idle, done) {
		t.Fatal("IsBlocked lost the entry")
	}
	if m.IsBlocked(idle, ping) {
		t.Fatal("IsBlocked invented an entry")
	}
	if got := m.NumBlocked(); got != 1 {
		t.Fatalf("NumBlocked = %d", got)
	}
	if err := m.Consistent(); err != nil {
		t.Fatal(err)
	}
	if got := m.BlockedAt(idle); len(got) != 1 || !got[0].Equal(done) {
		t.Fatalf("BlockedAt = %v", got)
	}
	// A foreign interaction would read as the empty label once interned,
	// hiding that label's chaos escape in the closure.
	if err := m.Block(idle, Interact([]Signal{"zz"}, nil)); err == nil {
		t.Fatal("blocking an interaction outside the alphabets accepted")
	}
	if err := m.Block(idle, Interact(nil, []Signal{"ping"})); err == nil {
		t.Fatal("blocking an input signal as an output accepted")
	}
	if err := m.Block(StateID(99), done); err == nil {
		t.Fatal("blocking at out-of-range state accepted")
	}
}

func TestIncompleteDeterministic(t *testing.T) {
	m := newIncompletePingPong(t)
	if !m.Deterministic() {
		t.Fatal("deterministic incomplete automaton misreported")
	}
	a := m.Automaton()
	idle := a.State("idle")
	ping := Interact([]Signal{"ping"}, []Signal{"pong"})
	a.MustAddTransition(idle, ping, idle) // second successor for same label
	if m.Deterministic() {
		t.Fatal("nondeterministic T not detected")
	}
}

func TestIncompleteCompleteAndUnknown(t *testing.T) {
	u := Universe(UniverseSingleton)
	a := New("tiny", NewSignalSet("x"), EmptySet)
	s := a.MustAddState("s")
	a.MarkInitial(s)
	m := NewIncomplete(a)

	// Universe: {}/{} and {x}/{} — both unknown initially.
	if m.Complete(u) {
		t.Fatal("empty model reported complete")
	}
	unknown := m.Unknown(s, u)
	if len(unknown) != 2 {
		t.Fatalf("Unknown = %v", unknown)
	}

	a.MustAddTransition(s, Interact([]Signal{"x"}, nil), s)
	if err := m.Block(s, Interaction{}); err != nil {
		t.Fatal(err)
	}
	if !m.Complete(u) {
		t.Fatal("fully determined model reported incomplete")
	}
	if got := m.Unknown(s, u); len(got) != 0 {
		t.Fatalf("Unknown after completion = %v", got)
	}
}

func TestIncompleteRunChecking(t *testing.T) {
	m := newIncompletePingPong(t)
	a := m.Automaton()
	idle, busy := a.State("idle"), a.State("busy")
	ping := Interact([]Signal{"ping"}, []Signal{"pong"})
	done := Interact(nil, []Signal{"done"})

	regular := Run{States: []StateID{idle, busy}, Steps: []Interaction{ping}}
	if err := m.IsRunOf(regular); err != nil {
		t.Fatal(err)
	}

	// Deadlock run needs the final interaction in T̄ (Definition 7) — not
	// merely missing from T.
	dead := Run{States: []StateID{idle}, Steps: []Interaction{done}, Deadlock: true}
	if err := m.IsRunOf(dead); err == nil {
		t.Fatal("deadlock run without T̄ entry accepted for incomplete automaton")
	}
	if err := m.Block(idle, done); err != nil {
		t.Fatal(err)
	}
	if err := m.IsRunOf(dead); err != nil {
		t.Fatalf("deadlock run with T̄ entry rejected: %v", err)
	}
}

func TestIncompleteClone(t *testing.T) {
	m := newIncompletePingPong(t)
	idle := m.Automaton().State("idle")
	done := Interact(nil, []Signal{"done"})
	if err := m.Block(idle, done); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if !c.IsBlocked(idle, done) {
		t.Fatal("clone lost blocked set")
	}
	// Mutating the clone must not affect the original.
	c.Automaton().MustAddState("fresh")
	if m.Automaton().State("fresh") != NoState {
		t.Fatal("clone shares automaton with original")
	}
}

func TestChaoticAutomatonShape(t *testing.T) {
	u := Universe(UniverseSingleton)
	in, out := NewSignalSet("i"), NewSignalSet("o")
	c := ChaoticAutomaton("chaos", in, out, u)
	if got := c.NumStates(); got != 2 {
		t.Fatalf("NumStates = %d", got)
	}
	labels := u.Enumerate(in, out)
	// s_all has 2 transitions per label (to s_all and s_delta); s_delta none.
	if got, want := c.NumTransitions(), 2*len(labels); got != want {
		t.Fatalf("NumTransitions = %d, want %d", got, want)
	}
	sDelta := c.State(ChaosDeltaState)
	if !c.IsDeadlock(sDelta) {
		t.Fatal("s_delta must block everything")
	}
	if len(c.Initial()) != 2 {
		t.Fatal("both chaos states must be initial (Definition 8)")
	}
	if !c.HasLabel(sDelta, ChaosProposition) {
		t.Fatal("chaos states must carry χ")
	}
}

func TestChaoticClosureShape(t *testing.T) {
	// Reproduces the structure of Fig. 4(b): closure of the trivial
	// single-state model.
	u := Universe(UniverseSingleton)
	a := New("shuttle2", NewSignalSet("in"), NewSignalSet("out"))
	s0 := a.MustAddState("noConvoy")
	a.MarkInitial(s0)
	m := NewIncomplete(a)
	c := ChaoticClosure(m, u)

	// States: (noConvoy,0), (noConvoy,1), s_all, s_delta.
	if got, want := c.NumStates(), 4; got != want {
		t.Fatalf("NumStates = %d, want %d", got, want)
	}
	if got, want := len(c.Initial()), 2; got != want {
		t.Fatalf("len(Initial) = %d, want %d", got, want)
	}
	closed := c.State("noConvoy" + ChaosClosedSuffix)
	open := c.State("noConvoy" + ChaosOpenSuffix)
	if closed == NoState || open == NoState {
		t.Fatal("closure lost the doubled states")
	}
	// The closed copy refuses everything (T empty); the open copy reaches
	// both chaos states under every universe label.
	if !c.IsDeadlock(closed) {
		t.Fatal("(s,0) with empty T must deadlock")
	}
	labels := u.Enumerate(a.Inputs(), a.Outputs())
	if got, want := len(c.TransitionsFrom(open)), 2*len(labels); got != want {
		t.Fatalf("open copy has %d transitions, want %d", got, want)
	}
	if !IsChaosState(c, c.State(ChaosAllState)) || IsChaosState(c, closed) {
		t.Fatal("IsChaosState misclassifies")
	}
}

func TestChaoticClosureRespectsBlocked(t *testing.T) {
	u := Universe(UniverseSingleton)
	a := New("m", NewSignalSet("x"), EmptySet)
	s0 := a.MustAddState("s0")
	a.MarkInitial(s0)
	m := NewIncomplete(a)
	x := Interact([]Signal{"x"}, nil)
	if err := m.Block(s0, x); err != nil {
		t.Fatal(err)
	}
	c := ChaoticClosure(m, u)
	open := c.State("s0" + ChaosOpenSuffix)
	for _, tr := range c.TransitionsFrom(open) {
		if tr.Label.Equal(x) {
			t.Fatal("closure added chaos transition for a blocked interaction")
		}
	}
}

// TestTheorem1 checks Theorem 1 on random instances: if M (incomplete) is
// observation conforming to a deterministic implementation M_r, then
// M_r ⊑ chaos(M).
func TestTheorem1ChaoticClosureIsSafeAbstraction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := Universe(UniverseSingleton)
	for i := 0; i < 100; i++ {
		impl := randomDeterministicAutomaton(rng, "impl", 4, 2)
		// Learn a random sub-behaviour of impl: random walk observations.
		m := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
		for w := 0; w < 3; w++ {
			run := randomWalkObservation(rng, impl, 4)
			if _, err := m.Learn(run, nil); err != nil {
				t.Fatalf("iteration %d: learn: %v", i, err)
			}
		}
		if err := m.ObservationConforming(impl); err != nil {
			t.Fatalf("iteration %d: learned model not conforming: %v", i, err)
		}
		closure := ChaoticClosure(m, u)
		ok, cex, err := Refines(impl, closure)
		if err != nil {
			t.Fatalf("iteration %d: refines: %v", i, err)
		}
		if !ok {
			t.Fatalf("iteration %d: Theorem 1 violated; cex=%v\nimpl:\n%s\nclosure:\n%s",
				i, cex, impl.Dot(), closure.Dot())
		}
	}
}

// TestLemma2 checks that composition preserves refinement on random
// instances: M2 ⊑ M2' ⇒ M1‖M2 ⊑ M1‖M2'.
func TestLemma2CompositionPreservesRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		spec := randomAutomaton(rng, "spec", 3, 2)
		impl := randomSubAutomaton(rng, "impl", spec)
		ok, _, err := Refines(impl, spec)
		if err != nil || !ok {
			continue // only test pairs that refine
		}
		// Environment automaton with disjoint alphabet (orthogonal).
		env := randomAutomaton(rng, "env", 3, 1)
		envRen, err := env.Rename("env", map[Signal]Signal{"a": "z"})
		if err != nil {
			t.Fatal(err)
		}
		left, err := Compose("l", envRen, impl)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Compose("r", envRen, spec)
		if err != nil {
			t.Fatal(err)
		}
		if left.NumStates() == 0 || right.NumStates() == 0 {
			continue
		}
		ok, cex, err := Refines(left, right)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("iteration %d: Lemma 2 violated; cex=%v", i, cex)
		}
	}
}

// randomDeterministicAutomaton builds a random deterministic automaton
// where every state has at least one outgoing transition.
func randomDeterministicAutomaton(rng *rand.Rand, name string, states, signals int) *Automaton {
	inputs := make([]Signal, 0, signals)
	for i := 0; i < signals; i++ {
		inputs = append(inputs, Signal(rune('a'+i)))
	}
	a := New(name, NewSignalSet(inputs...), EmptySet)
	for i := 0; i < states; i++ {
		a.MustAddState("q" + string(rune('0'+i)))
	}
	a.MarkInitial(0)
	labels := Universe(UniverseSingleton).Enumerate(a.Inputs(), a.Outputs())
	for s := 0; s < states; s++ {
		n := 1 + rng.Intn(len(labels))
		perm := rng.Perm(len(labels))
		for _, li := range perm[:n] {
			to := StateID(rng.Intn(states))
			_ = a.AddTransition(StateID(s), labels[li], to)
		}
	}
	return a
}

// randomWalkObservation produces an observed run by walking impl randomly.
func randomWalkObservation(rng *rand.Rand, impl *Automaton, steps int) ObservedRun {
	cur := impl.Initial()[rng.Intn(len(impl.Initial()))]
	run := ObservedRun{Initial: impl.StateName(cur)}
	for i := 0; i < steps; i++ {
		ts := impl.TransitionsFrom(cur)
		if len(ts) == 0 {
			break
		}
		tr := ts[rng.Intn(len(ts))]
		run.Steps = append(run.Steps, ObservedStep{Label: tr.Label, To: impl.StateName(tr.To)})
		cur = tr.To
	}
	return run
}

func TestIncompleteDot(t *testing.T) {
	m := newIncompletePingPong(t)
	idle := m.Automaton().State("idle")
	if err := m.Block(idle, Interact(nil, []Signal{"done"})); err != nil {
		t.Fatal(err)
	}
	dot := m.Dot()
	for _, want := range []string{"digraph", "style=dashed", "refused", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("Dot missing %q:\n%s", want, dot)
		}
	}
}
