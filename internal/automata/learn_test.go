package automata

import (
	"math/rand"
	"testing"
)

func TestLearnRegularRun(t *testing.T) {
	m := NewIncomplete(New("model", NewSignalSet("req"), NewSignalSet("ack")))
	req := Interact([]Signal{"req"}, []Signal{"ack"})

	delta, err := m.Learn(ObservedRun{
		Initial: "idle",
		Steps: []ObservedStep{
			{Label: req, To: "serving"},
			{Label: Interaction{}, To: "idle"},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.NewStates) != 2 || len(delta.NewTransitions) != 2 || len(delta.NewBlocked) != 0 {
		t.Fatalf("delta = %+v", delta)
	}
	a := m.Automaton()
	if a.State("idle") == NoState || a.State("serving") == NoState {
		t.Fatal("states not learned")
	}
	if len(a.Initial()) != 1 || a.Initial()[0] != a.State("idle") {
		t.Fatal("initial state not learned")
	}

	// Learning the same run again adds nothing.
	delta, err = m.Learn(ObservedRun{
		Initial: "idle",
		Steps:   []ObservedStep{{Label: req, To: "serving"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() {
		t.Fatalf("re-learning added %+v", delta)
	}
}

func TestLearnBlockedRun(t *testing.T) {
	m := NewIncomplete(New("model", NewSignalSet("req"), EmptySet))
	req := Interact([]Signal{"req"}, nil)
	blocked := req
	delta, err := m.Learn(ObservedRun{Initial: "idle", Blocked: &blocked}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.NewBlocked) != 1 || len(delta.NewStates) != 1 {
		t.Fatalf("delta = %+v", delta)
	}
	if !m.IsBlocked(m.Automaton().State("idle"), req) {
		t.Fatal("blocked entry not learned")
	}
	// Blocking again is idempotent.
	delta, err = m.Learn(ObservedRun{Initial: "idle", Blocked: &blocked}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() {
		t.Fatalf("re-learning blocked entry added %+v", delta)
	}
}

func TestLearnConflictWithBlockedEntry(t *testing.T) {
	m := NewIncomplete(New("model", NewSignalSet("req"), EmptySet))
	req := Interact([]Signal{"req"}, nil)
	blocked := req
	if _, err := m.Learn(ObservedRun{Initial: "idle", Blocked: &blocked}, nil); err != nil {
		t.Fatal(err)
	}
	// Observing the same interaction succeed contradicts the recorded
	// refusal — the implementation would be nondeterministic.
	_, err := m.Learn(ObservedRun{
		Initial: "idle",
		Steps:   []ObservedStep{{Label: req, To: "other"}},
	}, nil)
	if err == nil {
		t.Fatal("contradictory observation accepted")
	}
}

func TestLearnConflictingSuccessor(t *testing.T) {
	m := NewIncomplete(New("model", NewSignalSet("req"), EmptySet))
	req := Interact([]Signal{"req"}, nil)
	if _, err := m.Learn(ObservedRun{
		Initial: "idle",
		Steps:   []ObservedStep{{Label: req, To: "a"}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Deterministic implementations cannot reach a different state on the
	// same interaction.
	_, err := m.Learn(ObservedRun{
		Initial: "idle",
		Steps:   []ObservedStep{{Label: req, To: "b"}},
	}, nil)
	if err == nil {
		t.Fatal("conflicting successor accepted")
	}
}

func TestLearnAppliesLabeler(t *testing.T) {
	m := NewIncomplete(New("model", EmptySet, EmptySet))
	labeler := func(state string) []Proposition {
		return []Proposition{Proposition("model." + state)}
	}
	if _, err := m.Learn(ObservedRun{Initial: "s"}, labeler); err != nil {
		t.Fatal(err)
	}
	if !m.Automaton().HasLabel(m.Automaton().State("s"), "model.s") {
		t.Fatal("labeler not applied")
	}
}

func TestObservedRunStates(t *testing.T) {
	r := ObservedRun{
		Initial: "a",
		Steps:   []ObservedStep{{To: "b"}, {To: "c"}},
	}
	got := r.States()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("States() = %v", got)
	}
}

func TestObservationConformingDetectsViolations(t *testing.T) {
	impl := New("impl", NewSignalSet("x"), EmptySet)
	s0 := impl.MustAddState("s0")
	s1 := impl.MustAddState("s1")
	x := Interact([]Signal{"x"}, nil)
	impl.MustAddTransition(s0, x, s1)
	impl.MarkInitial(s0)

	// Conforming model.
	m := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
	if _, err := m.Learn(ObservedRun{Initial: "s0", Steps: []ObservedStep{{Label: x, To: "s1"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.ObservationConforming(impl); err != nil {
		t.Fatalf("conforming model rejected: %v", err)
	}

	// Unknown state name.
	bad := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
	if _, err := bad.Learn(ObservedRun{Initial: "ghost"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bad.ObservationConforming(impl); err == nil {
		t.Fatal("model with unknown state accepted")
	}

	// Transition the implementation lacks.
	bad2 := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
	if _, err := bad2.Learn(ObservedRun{Initial: "s0", Steps: []ObservedStep{{Label: x, To: "s0"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bad2.ObservationConforming(impl); err == nil {
		t.Fatal("model with phantom transition accepted")
	}

	// Refusal the implementation does not have.
	bad3 := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
	blocked := x
	if _, err := bad3.Learn(ObservedRun{Initial: "s0", Blocked: &blocked}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bad3.ObservationConforming(impl); err == nil {
		t.Fatal("model with phantom refusal accepted")
	}

	// Wrong initial state.
	bad4 := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
	if _, err := bad4.Learn(ObservedRun{Initial: "s1"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bad4.ObservationConforming(impl); err == nil {
		t.Fatal("model with non-initial start accepted")
	}
}

// TestLemma7 checks Lemma 7 on random instances: learning any real
// observation of the implementation keeps the chaotic closure a safe
// abstraction (M_r ⊑ chaos(learn(M, π))) — the inductive step of the
// iterative synthesis correctness argument.
func TestLemma7LearnPreservesSafeAbstraction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	u := Universe(UniverseSingleton)
	for i := 0; i < 60; i++ {
		impl := randomDeterministicAutomaton(rng, "impl", 4, 2)
		m := NewIncomplete(New("model", impl.Inputs(), impl.Outputs()))
		for step := 0; step < 5; step++ {
			run := randomWalkObservation(rng, impl, 3)
			if _, err := m.Learn(run, nil); err != nil {
				t.Fatalf("iteration %d: learn: %v", i, err)
			}
			closure := ChaoticClosure(m, u)
			ok, cex, err := Refines(impl, closure)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("iteration %d step %d: Lemma 7 violated; cex=%v", i, step, cex)
			}
		}
	}
}
