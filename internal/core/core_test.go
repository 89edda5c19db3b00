package core

import (
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/ctl"
	"muml/internal/legacy"
	"muml/internal/railcab"
)

func newRailcabSynth(t *testing.T, comp legacy.Component, opts Options) *Synthesizer {
	t.Helper()
	if opts.Property == nil {
		opts.Property = railcab.Constraint()
	}
	s, err := New(railcab.FrontRole(), comp, railcab.RearInterface(railcab.RearRoleName), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCorrectShuttleIsProven(t *testing.T) {
	s := newRailcabSynth(t, &railcab.CorrectShuttle{}, Options{})
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v (%v), want proven; iterations=%d",
			report.Verdict, report.Kind, len(report.Iterations))
	}
	// The proof must not require learning the whole component: the
	// correct shuttle has 4 states, all relevant here, but the wait-state
	// idling (a real behavior) is never exercised because the urgent
	// context never lets it matter. At minimum, learning happened.
	if report.Stats.StatesLearned == 0 || report.Stats.TransitionsLearned == 0 {
		t.Fatalf("stats = %+v: expected learning to happen", report.Stats)
	}
	// The learned model must be observation conforming in spirit: its
	// final automaton is deterministic and consistent.
	if !report.Model.Deterministic() {
		t.Fatal("final model not deterministic")
	}
	if err := report.Model.Consistent(); err != nil {
		t.Fatal(err)
	}
	t.Logf("proven after %d iterations, learned %d states / %d transitions / %d refusals, peak |system|=%d",
		report.Stats.Iterations, report.Stats.StatesLearned,
		report.Stats.TransitionsLearned, report.Stats.RefusalsLearned, report.Stats.PeakSystemStates)
}

func TestCorrectShuttleDoesNotLearnIrrelevantBehavior(t *testing.T) {
	// The paper's central claim: only context-relevant behavior is
	// learned. The correct shuttle can idle in noConvoy::wait (a real
	// transition), but the urgent front role never offers a step in which
	// that idling synchronizes, so the loop must finish without learning
	// it.
	s := newRailcabSynth(t, &railcab.CorrectShuttle{}, Options{})
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v", report.Verdict)
	}
	a := report.Model.Automaton()
	wait := a.State("noConvoy::wait")
	if wait == automata.NoState {
		t.Fatal("wait state should have been learned")
	}
	for _, tr := range a.TransitionsFrom(wait) {
		if tr.Label.In.IsEmpty() && tr.Label.Out.IsEmpty() {
			t.Fatal("idle transition at wait was learned although the context never exercises it")
		}
	}
}

func TestEagerShuttleFastConflictDetection(t *testing.T) {
	s := newRailcabSynth(t, &railcab.EagerShuttle{}, Options{})
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictViolation || report.Kind != ViolationConstraint {
		t.Fatalf("verdict = %v/%v, want violation/constraint", report.Verdict, report.Kind)
	}
	// Fast conflict detection: the final iteration decided without a
	// test, from learned behavior alone (Listing 1.4).
	last := report.Iterations[len(report.Iterations)-1]
	if last.Test != TestNotRun {
		t.Fatalf("final iteration ran a test (%v); expected fast conflict detection", last.Test)
	}
	if !last.CexInLearnedPart {
		t.Fatal("conflict counterexample claimed to involve chaos states")
	}
	if report.Witness == nil || report.WitnessText() == "" {
		t.Fatal("missing witness")
	}
	// The witness ends in the conflicting mode combination.
	sys := report.WitnessSystem
	final := report.Witness.States[len(report.Witness.States)-1]
	if !sys.HasLabel(final, "rearRole.convoy") || !sys.HasLabel(final, "frontRole.noConvoy") {
		t.Fatalf("witness final labels = %v", sys.Labels(final))
	}
	t.Logf("conflict found after %d iterations:\n%s", report.Stats.Iterations, report.WitnessText())
}

func TestBlockingShuttleConfirmedDeadlock(t *testing.T) {
	s := newRailcabSynth(t, &railcab.BlockingShuttle{}, Options{})
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictViolation || report.Kind != ViolationDeadlock {
		t.Fatalf("verdict = %v/%v, want violation/deadlock", report.Verdict, report.Kind)
	}
	last := report.Iterations[len(report.Iterations)-1]
	if last.Test != TestConfirmedDeadlock {
		t.Fatalf("final test outcome = %v, want confirmed-deadlock", last.Test)
	}
	if len(last.Probes) == 0 {
		t.Fatal("deadlock confirmed without probing the context offers")
	}
	for _, p := range last.Probes {
		if p.Accepted {
			// Accepted probes are fine only if they cannot form a joint
			// step; the blocking shuttle refuses everything when
			// terminated.
			t.Fatalf("terminated shuttle accepted probe %v", p.Input)
		}
	}
	t.Logf("deadlock confirmed after %d iterations, %d probes", report.Stats.Iterations, report.Stats.ProbesRun)
}

func TestVerdictsHaveNoFalseness(t *testing.T) {
	// Cross-validate the verdicts against ground truth: wrap each
	// controller's true automaton (reconstructed by exhaustive
	// exploration) and model check the full composition directly.
	controllers := []struct {
		name string
		comp legacy.Component
		want Verdict
	}{
		{"correct", &railcab.CorrectShuttle{}, VerdictProven},
		{"eager", &railcab.EagerShuttle{}, VerdictViolation},
		{"blocking", &railcab.BlockingShuttle{}, VerdictViolation},
	}
	for _, tc := range controllers {
		t.Run(tc.name, func(t *testing.T) {
			s := newRailcabSynth(t, tc.comp, Options{})
			report, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if report.Verdict != tc.want {
				t.Fatalf("verdict = %v, want %v", report.Verdict, tc.want)
			}
			// Ground truth: explore the real component exhaustively into
			// an automaton and verify directly.
			truth := ExploreComponent(tc.comp, railcab.RearInterface(railcab.RearRoleName),
				automata.Universe(automata.UniverseSingleton), QualifiedLabeler(railcab.RearRoleName), 64)
			sys, err := automata.Compose("truth", railcab.FrontRole(), truth)
			if err != nil {
				t.Fatal(err)
			}
			checker := ctl.NewChecker(sys)
			holds := checker.Holds(railcab.Constraint()) && checker.Holds(ctl.NoDeadlock())
			if holds != (report.Verdict == VerdictProven) {
				t.Fatalf("synthesis verdict %v contradicts ground truth holds=%v", report.Verdict, holds)
			}
		})
	}
}

func TestLearnedModelConformsToImplementation(t *testing.T) {
	// Every learned transition and refusal must be real behavior of the
	// implementation (observation conformance, Definition 10) — this is
	// what makes the abstractions safe (Theorem 1).
	comps := []legacy.Component{
		&railcab.CorrectShuttle{}, &railcab.EagerShuttle{}, &railcab.BlockingShuttle{},
	}
	for _, comp := range comps {
		s := newRailcabSynth(t, comp, Options{})
		report, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		truth := ExploreComponent(comp, railcab.RearInterface(railcab.RearRoleName),
			automata.Universe(automata.UniverseSingleton), QualifiedLabeler(railcab.RearRoleName), 64)
		if err := report.Model.ObservationConforming(truth); err != nil {
			t.Fatalf("learned model not conforming: %v", err)
		}
	}
}

func TestProvenModelIsSmallerThanFullBehavior(t *testing.T) {
	// The proof must not require exploring the entire interaction
	// universe: far fewer tests than the exhaustive product.
	s := newRailcabSynth(t, &railcab.CorrectShuttle{}, Options{})
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	universeSize := len(automata.Universe(automata.UniverseSingleton).
		Enumerate(railcab.FrontToRear(), railcab.RearToFront()))
	full := report.Model.Automaton().NumStates() * universeSize
	learnedFacts := report.Model.Automaton().NumTransitions() + report.Model.NumBlocked()
	if learnedFacts >= full {
		t.Fatalf("learned %d facts, exhaustive exploration would be %d — no savings", learnedFacts, full)
	}
}

func TestOptionsValidation(t *testing.T) {
	front := railcab.FrontRole()
	iface := railcab.RearInterface(railcab.RearRoleName)
	if _, err := New(nil, &railcab.CorrectShuttle{}, iface, Options{}); err == nil {
		t.Fatal("nil context accepted")
	}
	if _, err := New(front, nil, iface, Options{}); err == nil {
		t.Fatal("nil component accepted")
	}
	badIface := iface
	badIface.Name = ""
	if _, err := New(front, &railcab.CorrectShuttle{}, badIface, Options{}); err == nil {
		t.Fatal("invalid interface accepted")
	}
	// Non-ACTL property.
	if _, err := New(front, &railcab.CorrectShuttle{}, iface, Options{
		Property: ctl.EF(ctl.Atom("x")),
	}); err == nil {
		t.Fatal("non-ACTL property accepted")
	}
	// Overlapping alphabets.
	clash := automata.New("clash", iface.Inputs, automata.EmptySet)
	id := clash.MustAddState("s")
	clash.MarkInitial(id)
	if _, err := New(clash, &railcab.CorrectShuttle{}, iface, Options{}); err == nil {
		t.Fatal("overlapping alphabets accepted")
	}
	// Leaf-name clashes: counterexamples are projected by leaf name, so a
	// component named like a context leaf or like another component would
	// be projected onto the wrong automaton.
	namesake := automata.New("service1", automata.NewSignalSet("pong1"), automata.NewSignalSet("ping1"))
	n0 := namesake.MustAddState("ask")
	n1 := namesake.MustAddState("await")
	namesake.MustAddTransition(n0, automata.Interact(nil, []automata.Signal{"ping1"}), n1)
	namesake.MustAddTransition(n1, automata.Interact([]automata.Signal{"pong1"}, nil), n0)
	namesake.MarkInitial(n0)
	if _, err := New(namesake, &ponger{idx: "1"}, pongIface("1"), Options{}); err == nil ||
		!strings.Contains(err.Error(), `"service1"`) {
		t.Fatalf("component named like a context leaf: err = %v, want a clash naming service1", err)
	}
	twin := pongIface("2")
	twin.Name = "service1"
	if _, err := NewMulti(multiContext(), []legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2"}},
		[]legacy.Interface{pongIface("1"), twin}, Options{}); err == nil ||
		!strings.Contains(err.Error(), `"service1"`) {
		t.Fatalf("two components named alike: err = %v, want a clash naming service1", err)
	}
	// The nondeterministic path takes a single component.
	if _, err := NewMulti(multiContext(), []legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2"}},
		[]legacy.Interface{pongIface("1"), pongIface("2")}, Options{Nondet: true}); err == nil {
		t.Fatal("Nondet with two components accepted")
	}
}

func TestQualifiedLabeler(t *testing.T) {
	l := QualifiedLabeler("rearRole")
	got := l("convoy::breakWait")
	if len(got) != 2 || got[0] != "rearRole.convoy" || got[1] != "rearRole.convoy::breakWait" {
		t.Fatalf("labels = %v", got)
	}
	if got := l("simple"); len(got) != 1 || got[0] != "rearRole.simple" {
		t.Fatalf("labels = %v", got)
	}
}

func TestDeadlockOnlyMode(t *testing.T) {
	// Property nil: only deadlock freedom is established.
	s, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName), Options{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v", report.Verdict)
	}
}

func TestIterationListingsRendered(t *testing.T) {
	s := newRailcabSynth(t, &railcab.CorrectShuttle{}, Options{})
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sawTrace := false
	for _, it := range report.Iterations {
		if it.ReplayTrace != nil {
			text := it.ReplayTrace.Render()
			if strings.Contains(text, "[CurrentState]") {
				sawTrace = true
			}
		}
	}
	if !sawTrace {
		t.Fatal("no replay trace rendered in listing format")
	}
}
