package core

import (
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/ctl"
	"muml/internal/obs"
	"muml/internal/railcab"
	"muml/internal/rtsc"
)

// patientFront is the front role with a *non-urgent* break state: it may
// postpone the break-convoy decision indefinitely. Used to exercise
// bounded-response (CCTL) properties in the synthesis loop.
func patientFront() *automata.Automaton {
	c := rtsc.NewChart(railcab.FrontRoleName)
	c.MustAddState("noConvoy", rtsc.Initial())
	c.MustAddState("default", rtsc.Initial(), rtsc.Parent("noConvoy"))
	c.MustAddState("answer", rtsc.Parent("noConvoy"), rtsc.Urgent())
	c.MustAddState("convoy")
	c.MustAddState("cruise", rtsc.Initial(), rtsc.Parent("convoy"))
	c.MustAddState("break", rtsc.Parent("convoy")) // NOT urgent: may stall
	c.MustAddTransition("default", "answer", rtsc.Trigger(railcab.ConvoyProposal))
	c.MustAddTransition("answer", "default", rtsc.Raise(railcab.ConvoyProposalRejected))
	c.MustAddTransition("answer", "convoy", rtsc.Raise(railcab.StartConvoy))
	c.MustAddTransition("cruise", "break", rtsc.Trigger(railcab.BreakConvoyProposal))
	c.MustAddTransition("break", "cruise", rtsc.Raise(railcab.BreakConvoyProposalRejected))
	c.MustAddTransition("break", "noConvoy", rtsc.Raise(railcab.BreakConvoyAccepted))
	return c.MustFlatten(rtsc.WithStateLabels())
}

// breakDeadline requires the rear shuttle's break request to be decided
// within 3 time units: a compositional CCTL bounded-response constraint
// (the maximal-delay pattern of Section 2.4).
func breakDeadline() ctl.Formula {
	return ctl.MustParse("AG (rearRole.convoy::breakWait -> AF[1,3] not rearRole.convoy::breakWait)")
}

func TestBoundedResponseProvenWithUrgentContext(t *testing.T) {
	// With the paper's urgent front role the break decision arrives in the
	// very next period, so the deadline holds and the loop proves it
	// together with the mode constraint.
	synth, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: ctl.And(railcab.Constraint(), breakDeadline())})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v/%v after %d iterations\n%s",
			report.Verdict, report.Kind, report.Stats.Iterations, report.WitnessText())
	}
}

func TestBoundedResponseViolatedByPatientContext(t *testing.T) {
	// A front role that may stall the break decision violates the deadline
	// — and since the stalling path consists of learned (real) rear-role
	// behavior plus context idling, the violation must surface as a real
	// constraint counterexample.
	synth, err := New(patientFront(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: breakDeadline()})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictViolation || report.Kind != ViolationConstraint {
		t.Fatalf("verdict = %v/%v, want violation/constraint", report.Verdict, report.Kind)
	}
	// The witness stalls inside convoy::breakWait.
	if !strings.Contains(report.WitnessText(), "breakWait") {
		t.Fatalf("witness does not show the stalled break:\n%s", report.WitnessText())
	}
}

func TestSkipDeadlockCheck(t *testing.T) {
	// With the deadlock check disabled, the blocking shuttle's termination
	// is invisible (it violates no mode constraint) and the loop proves
	// the constraint alone.
	synth, err := New(railcab.FrontRole(), &railcab.BlockingShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint(), SkipDeadlockCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v/%v", report.Verdict, report.Kind)
	}
}

func TestJournalReceivesProgress(t *testing.T) {
	var sink obs.MemorySink
	synth, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{
			Property: railcab.Constraint(),
			Journal:  obs.NewJournal(&sink),
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Run(); err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("journal never received an event")
	}
	if got := events[len(events)-1].Kind; got != obs.KindVerdict {
		t.Fatalf("last event kind = %v, want %v", got, obs.KindVerdict)
	}
}

func TestMaxIterationsExceeded(t *testing.T) {
	synth, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint(), MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Run(); err == nil {
		t.Fatal("expected iteration-budget error")
	}
}

func TestModelAccessorExposesLearnedState(t *testing.T) {
	synth, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint()})
	if err != nil {
		t.Fatal(err)
	}
	if synth.Model().Automaton().NumStates() != 1 {
		t.Fatal("initial model should hold only the initial state")
	}
	if _, err := synth.Run(); err != nil {
		t.Fatal(err)
	}
	if synth.Model().Automaton().NumStates() < 4 {
		t.Fatal("model not updated by Run")
	}
}

// TestExploreComponentBounds verifies the maxStates guard.
func TestExploreComponentBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when exceeding maxStates")
		}
	}()
	ExploreComponent(&railcab.CorrectShuttle{}, railcab.RearInterface(railcab.RearRoleName),
		automata.Universe(automata.UniverseSingleton), nil, 2)
}
