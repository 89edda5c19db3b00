package core

import (
	"fmt"
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/ctl"
	"muml/internal/legacy"
)

// multiContext builds a coordinator that polls two independent services in
// sequence: send ping1, await pong1, send ping2, await pong2, repeat.
func multiContext() *automata.Automaton {
	c := automata.New("coordinator",
		automata.NewSignalSet("pong1", "pong2"),
		automata.NewSignalSet("ping1", "ping2"))
	c0 := c.MustAddState("askFirst")
	c1 := c.MustAddState("awaitFirst")
	c2 := c.MustAddState("askSecond")
	c3 := c.MustAddState("awaitSecond")
	c.MustAddTransition(c0, automata.Interact(nil, []automata.Signal{"ping1"}), c1)
	c.MustAddTransition(c1, automata.Interact([]automata.Signal{"pong1"}, nil), c2)
	c.MustAddTransition(c2, automata.Interact(nil, []automata.Signal{"ping2"}), c3)
	c.MustAddTransition(c3, automata.Interact([]automata.Signal{"pong2"}, nil), c0)
	c.MarkInitial(c0)
	return c
}

// ponger is a deterministic service answering ping with pong one step
// later; when mute it swallows the ping and never answers.
type ponger struct {
	idx   string
	mute  bool
	state string
}

var _ legacy.Component = (*ponger)(nil)
var _ legacy.Introspector = (*ponger)(nil)

func (p *ponger) Reset()            { p.state = "idle" }
func (p *ponger) StateName() string { return p.state }

func (p *ponger) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	if p.state == "" {
		p.state = "idle"
	}
	ping := automata.NewSignalSet(automata.Signal("ping" + p.idx))
	switch p.state {
	case "idle":
		if in.IsEmpty() {
			return automata.EmptySet, true
		}
		if in.Equal(ping) {
			p.state = "got"
			return automata.EmptySet, true
		}
	case "got":
		if in.IsEmpty() {
			if p.mute {
				return automata.EmptySet, true // never answers
			}
			p.state = "idle"
			return automata.NewSignalSet(automata.Signal("pong" + p.idx)), true
		}
	}
	return automata.EmptySet, false
}

func pongIface(idx string) legacy.Interface {
	return legacy.Interface{
		Name:    "service" + idx,
		Inputs:  automata.NewSignalSet(automata.Signal("ping" + idx)),
		Outputs: automata.NewSignalSet(automata.Signal("pong" + idx)),
	}
}

func TestMultiSynthesisProvesTwoComponents(t *testing.T) {
	m, err := NewMulti(multiContext(),
		[]legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2"}},
		[]legacy.Interface{pongIface("1"), pongIface("2")},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v (%v) after %d iterations", report.Verdict, report.Kind, len(report.Iterations))
	}
	if len(report.Models) != 2 {
		t.Fatalf("models = %d", len(report.Models))
	}
	for i, model := range report.Models {
		if model.Automaton().NumTransitions() == 0 {
			t.Fatalf("component %d learned nothing", i)
		}
	}
	t.Logf("multi-component proof after %d iterations; learned %d+%d states",
		len(report.Iterations), report.Models[0].Automaton().NumStates(), report.Models[1].Automaton().NumStates())
}

// TestMultiSynthesisRefutesReachableState: service1 does reach "got", so
// AG ¬service1.got must come back violated. Learned states must carry their
// component's qualified labels: under unqualified ones (".got") the
// property holds vacuously on every learned model and is falsely proven.
func TestMultiSynthesisRefutesReachableState(t *testing.T) {
	m, err := NewMulti(multiContext(),
		[]legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2"}},
		[]legacy.Interface{pongIface("1"), pongIface("2")},
		Options{Property: ctl.AG(ctl.Not(ctl.Atom("service1.got")))})
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictViolation || report.Kind != ViolationConstraint {
		t.Fatalf("verdict = %v/%v after %d iterations, want violation/constraint violation",
			report.Verdict, report.Kind, len(report.Iterations))
	}
	for i, model := range report.Models {
		a := model.Automaton()
		prefix := fmt.Sprintf("service%d.", i+1)
		for id := 0; id < a.NumStates(); id++ {
			labels := a.Labels(automata.StateID(id))
			if len(labels) == 0 {
				t.Fatalf("component %d: state %q unlabelled", i, a.StateName(automata.StateID(id)))
			}
			for _, p := range labels {
				if !strings.HasPrefix(string(p), prefix) {
					t.Fatalf("component %d: state %q labelled %q, want prefix %q",
						i, a.StateName(automata.StateID(id)), p, prefix)
				}
			}
		}
	}
	if got := report.Models[0].Automaton().State("got"); got == automata.NoState {
		t.Fatal("service1 never learned its got state")
	}
}

func TestMultiSynthesisFindsDeadlockInSecondComponent(t *testing.T) {
	m, err := NewMulti(multiContext(),
		[]legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2", mute: true}},
		[]legacy.Interface{pongIface("1"), pongIface("2")},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictViolation || report.Kind != ViolationDeadlock {
		t.Fatalf("verdict = %v/%v, want violation/deadlock", report.Verdict, report.Kind)
	}
	if report.Witness == nil || report.WitnessText() == "" {
		t.Fatal("missing witness")
	}
}

func TestMultiRejectsSharedComponentSignals(t *testing.T) {
	_, err := NewMulti(multiContext(),
		[]legacy.Component{&ponger{idx: "1"}, &ponger{idx: "1"}},
		[]legacy.Interface{pongIface("1"), pongIface("1")},
		Options{})
	if err == nil {
		t.Fatal("components with shared signals accepted")
	}
}

func TestMultiRequiresMatchingLists(t *testing.T) {
	_, err := NewMulti(multiContext(),
		[]legacy.Component{&ponger{idx: "1"}},
		[]legacy.Interface{pongIface("1"), pongIface("2")},
		Options{})
	if err == nil {
		t.Fatal("mismatched lists accepted")
	}
	_, err = NewMulti(multiContext(), nil, nil, Options{})
	if err == nil {
		t.Fatal("empty lists accepted")
	}
}
