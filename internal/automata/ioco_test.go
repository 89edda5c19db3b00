package automata

import "testing"

// buildIoco constructs a small machine over inputs {a,b} outputs {x,y}
// from a transition table.
type iocoTr struct {
	from, to string
	in, out  Signal // "" means the empty set
}

func buildIoco(t *testing.T, name string, init string, trs []iocoTr) *Automaton {
	t.Helper()
	a := New(name, NewSignalSet("a", "b"), NewSignalSet("x", "y"))
	ensure := func(n string) StateID {
		if id := a.State(n); id != NoState {
			return id
		}
		return a.MustAddState(n)
	}
	set := func(s Signal) SignalSet {
		if s == "" {
			return EmptySet
		}
		return NewSignalSet(s)
	}
	a.MarkInitial(ensure(init))
	for _, tr := range trs {
		a.MustAddTransition(ensure(tr.from), Interaction{In: set(tr.in), Out: set(tr.out)}, ensure(tr.to))
	}
	return a
}

func TestQuiescentAndSaturation(t *testing.T) {
	a := buildIoco(t, "m", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"}, // s0: input-waiting → quiescent
		{from: "s1", to: "s2", in: "", out: "y"},  // s1: spontaneous output → not quiescent
		{from: "s2", to: "s0", in: "", out: ""},   // s2: silent step → not quiescent
	})
	if !a.Quiescent(a.State("s0")) {
		t.Fatal("s0 should be quiescent (only input-consuming transitions)")
	}
	if a.Quiescent(a.State("s1")) {
		t.Fatal("s1 emits spontaneously; not quiescent")
	}
	if a.Quiescent(a.State("s2")) {
		t.Fatal("s2 has a silent step; not quiescent")
	}

	sat, added := SaturateQuiescence(a, "sat")
	if added != 1 {
		t.Fatalf("expected 1 δ loop added (s0), got %d", added)
	}
	if got := sat.Successors(sat.State("s0"), DeltaInteraction); len(got) != 1 || got[0] != sat.State("s0") {
		t.Fatalf("δ self-loop missing at s0: %v", got)
	}
	// Idempotence: a second saturation adds nothing.
	if _, again := SaturateQuiescence(sat, "sat2"); again != 0 {
		t.Fatalf("saturation not idempotent: second pass added %d loops", again)
	}
	// The original automaton is untouched.
	if len(a.Successors(a.State("s0"), DeltaInteraction)) != 0 {
		t.Fatal("SaturateQuiescence mutated its argument")
	}
}

func TestIocoRefinesReflexiveAndSubset(t *testing.T) {
	spec := buildIoco(t, "spec", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
		{from: "s0", to: "s2", in: "a", out: "y"}, // output race: out(s0, a) = {x, y}
		{from: "s1", to: "s0", in: "b", out: ""},
	})
	if ok, cex, err := IocoRefines(spec, spec); err != nil || !ok {
		t.Fatalf("ioco not reflexive: cex=%v err=%v", cex, err)
	}
	// An implementation resolving the race one way still conforms.
	impl := buildIoco(t, "impl", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
		{from: "s1", to: "s0", in: "b", out: ""},
	})
	if ok, cex, err := IocoRefines(impl, spec); err != nil || !ok {
		t.Fatalf("race-resolving impl should conform: cex=%v err=%v", cex, err)
	}
	// The converse fails: spec produces y where impl's out-set is {x}.
	if ok, cex, err := IocoRefines(spec, impl); err != nil || ok {
		t.Fatalf("spec ioco impl should fail (out-set escape), cex=%v err=%v", cex, err)
	} else if len(cex) == 0 {
		t.Fatal("expected a counterexample suspension trace")
	}
}

func TestIocoOutSetEscape(t *testing.T) {
	spec := buildIoco(t, "spec", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
	})
	bad := buildIoco(t, "bad", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "y"}, // y ∉ out(spec after ε under a)
	})
	ok, cex, err := IocoRefines(bad, spec)
	if err != nil || ok {
		t.Fatalf("escape not detected: ok=%v err=%v", ok, err)
	}
	want := Interaction{In: NewSignalSet("a"), Out: NewSignalSet("y")}
	if len(cex) != 1 || !cex[0].Equal(want) {
		t.Fatalf("counterexample = %v, want [%s]", cex, want)
	}
}

func TestIocoQuiescenceDistinguishes(t *testing.T) {
	// spec always answers a with x; impl may also drop the message
	// (lossy branch with empty output). The empty output after a is an
	// out-set escape even though no wrong message is ever sent.
	spec := buildIoco(t, "spec", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
	})
	lossy := buildIoco(t, "lossy", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
		{from: "s0", to: "s1", in: "a", out: ""},
	})
	if ok, _, err := IocoRefines(lossy, spec); err != nil || ok {
		t.Fatalf("lossy impl must not conform to a lossless spec (ok=%v err=%v)", ok, err)
	}
	// A spec that allows the loss accepts the impl.
	specLossy := buildIoco(t, "spec2", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
		{from: "s0", to: "s1", in: "a", out: ""},
	})
	if ok, cex, err := IocoRefines(lossy, specLossy); err != nil || !ok {
		t.Fatalf("lossy impl should conform to lossy spec: cex=%v err=%v", cex, err)
	}
	// Quiescence escape: spec emits spontaneously, impl stays silent.
	// After δ-saturation the impl's idle loop ∅/∅ is not in out(spec).
	chatty := buildIoco(t, "chatty", "s0", []iocoTr{
		{from: "s0", to: "s0", in: "", out: "x"},
	})
	quiet := buildIoco(t, "quiet", "s0", nil)
	if ok, cex, err := IocoRefines(quiet, chatty); err != nil || ok {
		t.Fatalf("quiescent impl vs always-emitting spec must fail (ok=%v cex=%v err=%v)", ok, cex, err)
	}
	// ...and input refusals stay unconstrained: a spec accepting b does
	// not force the impl to.
	specB := buildIoco(t, "specb", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
		{from: "s0", to: "s1", in: "b", out: "x"},
	})
	implA := buildIoco(t, "impla", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
	})
	if ok, cex, err := IocoRefines(implA, specB); err != nil || !ok {
		t.Fatalf("input refusal must be unconstrained by ioco: cex=%v err=%v", cex, err)
	}
}

func TestRefinesImpliesIocoOnDeterministic(t *testing.T) {
	// For deterministic impl/spec pairs, ⊑ (Definition 4) is strictly
	// stronger than ioco.
	m := buildIoco(t, "m", "s0", []iocoTr{
		{from: "s0", to: "s1", in: "a", out: "x"},
		{from: "s1", to: "s0", in: "b", out: "y"},
	})
	clone := m.Clone("m2")
	if !m.Deterministic() || !clone.Deterministic() {
		t.Fatal("test pair must be deterministic")
	}
	if ok, _, err := Refines(m, clone); err != nil || !ok {
		t.Fatalf("m ⊑ m failed: %v", err)
	}
	if ok, cex, err := IocoRefines(m, clone); err != nil || !ok {
		t.Fatalf("Refines ⇒ IocoRefines violated: cex=%v err=%v", cex, err)
	}
}

func TestLearnMergesBranchesOnNondetModel(t *testing.T) {
	model := func(nondet bool) *Incomplete {
		a := New("impl", NewSignalSet("a"), NewSignalSet("x", "y"))
		a.MarkInitial(a.MustAddState("s0"))
		if nondet {
			return NewNondetIncomplete(a)
		}
		return NewIncomplete(a)
	}
	step := func(out Signal, to string) ObservedRun {
		return ObservedRun{Initial: "s0", Steps: []ObservedStep{{
			Label: Interaction{In: NewSignalSet("a"), Out: NewSignalSet(out)},
			To:    to,
		}}}
	}
	det := model(false)
	if _, err := det.Learn(step("x", "s1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Learn(step("x", "s2"), nil); err == nil {
		t.Fatal("Learn accepted a conflicting successor on a deterministic model; determinism check lost")
	}

	m := model(true)
	init := m.Automaton().State("s0")
	if _, err := m.Learn(step("x", "s1"), nil); err != nil {
		t.Fatal(err)
	}
	delta, err := m.Learn(step("x", "s9"), nil)
	if err != nil {
		t.Fatalf("Learn rejected a divergent-but-allowed branch on a nondeterministic model: %v", err)
	}
	if len(delta.NewStates) != 1 || len(delta.NewTransitions) != 1 {
		t.Fatalf("merge delta = %+v, want 1 state + 1 transition", delta)
	}
	if got := len(m.Automaton().Successors(init, step("x", "").Steps[0].Label)); got != 2 {
		t.Fatalf("a/x has %d learned successors, want 2", got)
	}
	// Re-observing a merged branch adds nothing.
	delta, err = m.Learn(step("x", "s1"), nil)
	if err != nil || !delta.Empty() {
		t.Fatalf("re-observation should be absorbed: delta=%+v err=%v", delta, err)
	}
	// Observations contradicting a refutation stay hard errors.
	blocked := Interaction{In: NewSignalSet("a"), Out: NewSignalSet("y")}
	if err := m.Block(init, blocked); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Learn(step("y", "s3"), nil); err == nil {
		t.Fatal("observed interaction contradicting T̄ must fail")
	}
	// So does a refusal of an interaction already observed.
	learned := step("x", "").Steps[0].Label
	if _, err := m.Learn(ObservedRun{Initial: "s0", Blocked: &learned}, nil); err == nil {
		t.Fatal("refusal of a learned interaction must fail")
	}
	if m.AllowsObservation("s0", blocked) {
		t.Fatal("AllowsObservation must reject a blocked interaction")
	}
	if !m.AllowsObservation("s0", Interaction{In: NewSignalSet("a"), Out: EmptySet}) {
		t.Fatal("unknown interactions are merge candidates, not escapes")
	}
	if !m.AllowsObservation("never-seen", blocked) {
		t.Fatal("unknown states are merge candidates")
	}
}

// The closure of a nondeterministic model must keep chaos escapes on
// learned labels until they are settled: one observed successor of a
// duplicated label does not cover its unlearned siblings.
func TestChaoticClosureNondetSettling(t *testing.T) {
	a := New("m", NewSignalSet("a"), NewSignalSet("x"))
	s0 := a.MustAddState("s0")
	s1 := a.MustAddState("s1")
	a.MarkInitial(s0)
	label := Interaction{In: NewSignalSet("a"), Out: NewSignalSet("x")}
	a.MustAddTransition(s0, label, s1)

	escapes := func(c *Automaton) int {
		open := c.State("s0" + ChaosOpenSuffix)
		n := 0
		for _, tr := range c.TransitionsFrom(open) {
			if c.StateName(tr.To) == ChaosAllState {
				n++
			}
		}
		return n
	}

	u := Universe(UniverseSingleton)
	if got := escapes(ChaoticClosure(NewIncomplete(a), u)); got != 3 {
		t.Fatalf("deterministic model's closure: %d chaos escapes from s0·1, want 3 (label a/x is known)", got)
	}
	m := NewNondetIncomplete(a)
	if got := escapes(ChaoticClosure(m, u)); got != 4 {
		t.Fatalf("nondeterministic model's closure: %d chaos escapes from s0·1, want 4 (a/x learned but unsettled)", got)
	}

	if err := m.SettleLabel(s0, label); err != nil {
		t.Fatal(err)
	}
	if !m.IsSettled(s0, label) || m.NumSettled() != 1 {
		t.Fatal("settle not recorded")
	}
	if got := escapes(ChaoticClosure(m, u)); got != 3 {
		t.Fatalf("settled nondeterministic model's closure: %d chaos escapes, want 3", got)
	}
	// Settling an unlearned label is a hard error, and the settled set is
	// part of the fingerprint (memo safety) and survives Clone.
	if err := m.SettleLabel(s1, label); err == nil {
		t.Fatal("settling an unlearned label must fail")
	}
	plain := NewNondetIncomplete(a.Clone("m"))
	if plain.Fingerprint() == m.Fingerprint() {
		t.Fatal("settled set must distinguish fingerprints")
	}
	if c := m.Clone(); !c.IsSettled(c.Automaton().State("s0"), label) {
		t.Fatal("Clone must carry the settled set")
	}
}
