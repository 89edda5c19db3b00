package core

import (
	"testing"
	"time"

	"muml/internal/automata"
	"muml/internal/legacy"
	"muml/internal/obs"
)

// nondetHarness builds a request/acknowledge pair: the component consumes
// req and answers ack or nak; the context sends req and accepts the given
// replies.
func nondetIface() legacy.Interface {
	return legacy.Interface{
		Name:    "impl",
		Inputs:  automata.NewSignalSet("req"),
		Outputs: automata.NewSignalSet("ack", "nak"),
	}
}

func nondetContext(t *testing.T, accepts ...string) *automata.Automaton {
	t.Helper()
	ctx := automata.New("ctx", automata.NewSignalSet("ack", "nak"), automata.NewSignalSet("req"))
	c0 := ctx.MustAddState("c0")
	ctx.MarkInitial(c0)
	for _, sig := range accepts {
		ctx.MustAddTransition(c0, automata.Interaction{
			In:  automata.NewSignalSet(automata.Signal(sig)),
			Out: automata.NewSignalSet("req"),
		}, c0)
	}
	return ctx
}

func TestNondetOutputRaceProven(t *testing.T) {
	// The component races ack/nak on every req; the context accepts both.
	// Every resolution of the race forms a joint step, so the integration
	// is deadlock-free — but only the nondet path can see that: the
	// deterministic replay hard-fails on the first divergent re-execution.
	a := automata.New("impl", automata.NewSignalSet("req"), automata.NewSignalSet("ack", "nak"))
	s0 := a.MustAddState("s0")
	a.MarkInitial(s0)
	req := automata.NewSignalSet("req")
	a.MustAddTransition(s0, automata.Interaction{In: req, Out: automata.NewSignalSet("ack")}, s0)
	a.MustAddTransition(s0, automata.Interaction{In: req, Out: automata.NewSignalSet("nak")}, s0)

	s, err := New(nondetContext(t, "ack", "nak"), legacy.MustWrapNondet(a), nondetIface(), Options{Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v/%v, want proven", report.Verdict, report.Kind)
	}
	// Both race branches must have been merged into the learned fragment.
	m := report.Model.Automaton()
	id := m.State("s0")
	if id == automata.NoState {
		t.Fatal("initial state not learned")
	}
	var outs []string
	for _, tr := range m.TransitionsFrom(id) {
		outs = append(outs, tr.Label.Out.Key())
	}
	if len(outs) < 2 {
		t.Fatalf("merged branches = %v, want both ack and nak", outs)
	}
	t.Logf("proven after %d iterations, %d merges into %d transitions",
		report.Stats.Iterations, report.Stats.TransitionsLearned, m.NumTransitions())
}

func TestNondetDuplicateSuccessorDeadlock(t *testing.T) {
	// Duplicate successors under an identical label: req/ack stays in s0
	// or moves to s1, where the only reply is nak — which the context
	// refuses to accept. The composed state (c0, s1) is a real deadlock,
	// and confirming it requires sampling the out-set at s1 rather than a
	// single deterministic probe.
	a := automata.New("impl", automata.NewSignalSet("req"), automata.NewSignalSet("ack", "nak"))
	s0 := a.MustAddState("s0")
	s1 := a.MustAddState("s1")
	a.MarkInitial(s0)
	req := automata.NewSignalSet("req")
	ack := automata.Interaction{In: req, Out: automata.NewSignalSet("ack")}
	a.MustAddTransition(s0, ack, s0)
	a.MustAddTransition(s0, ack, s1)
	a.MustAddTransition(s1, automata.Interaction{In: req, Out: automata.NewSignalSet("nak")}, s0)

	s, err := New(nondetContext(t, "ack"), legacy.MustWrapNondet(a), nondetIface(), Options{Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
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
	t.Logf("deadlock confirmed after %d iterations with %d probes",
		report.Stats.Iterations, report.Stats.ProbesRun)
}

func TestNondetDeterministicComponentStillWorks(t *testing.T) {
	// A deterministic component under the nondet path must reach the same
	// verdict as the deterministic path — ioco collapses to equality when
	// out-sets are singletons.
	a := automata.New("impl", automata.NewSignalSet("req"), automata.NewSignalSet("ack", "nak"))
	s0 := a.MustAddState("s0")
	a.MarkInitial(s0)
	a.MustAddTransition(s0, automata.Interaction{In: automata.NewSignalSet("req"), Out: automata.NewSignalSet("ack")}, s0)

	s, err := New(nondetContext(t, "ack"), legacy.MustWrapNondet(a), nondetIface(), Options{Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v/%v, want proven", report.Verdict, report.Kind)
	}
}

// driftingDouble accepts req silently in every state. From s0 its first
// req leads to x during its first fresh executions (resets) and to y in
// every later one, where each reset also takes pause.
type driftingDouble struct {
	resets, fresh, worn int
	pause               time.Duration
	state               string
}

func (d *driftingDouble) Reset() {
	d.resets++
	d.state = "s0"
	if d.resets > d.fresh {
		d.worn++
		time.Sleep(d.pause)
	}
}

func (d *driftingDouble) StateName() string { return d.state }

func (d *driftingDouble) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	if d.state == "s0" && in.Contains("req") {
		d.state = "x"
		if d.resets > d.fresh {
			d.state = "y"
		}
	}
	return automata.EmptySet, true
}

// TestNondetProbeUnreachedStaysOpen drives a nondeterministic component
// whose re-executions stop reaching the probed state. Iteration 0 probes
// req at s0 and learns s0 -req-> x (resets 1–3); iteration 1's test
// reproduces the deadlock counterexample ending in x (reset 4), but every
// one of the probe's nondetAttempts re-executions ends in y. The share is
// left open: a joint step counts as possible, so the deadlock is not
// confirmed, and nothing is recorded as a probe, the time staying in the
// test span.
func TestNondetProbeUnreachedStaysOpen(t *testing.T) {
	ctx := automata.New("ctx", automata.NewSignalSet("ack"), automata.NewSignalSet("req"))
	c0 := ctx.MustAddState("c0")
	c1 := ctx.MustAddState("c1")
	ctx.MarkInitial(c0)
	send := automata.Interaction{Out: automata.NewSignalSet("req")}
	ctx.MustAddTransition(c0, send, c1)
	ctx.MustAddTransition(c1, send, c1)
	iface := legacy.Interface{Name: "impl", Inputs: automata.NewSignalSet("req"), Outputs: automata.NewSignalSet("ack")}

	const pause = 200 * time.Microsecond
	d := &driftingDouble{fresh: 4, pause: pause}
	var sink obs.MemorySink
	s, err := New(ctx, d, iface, Options{Nondet: true, Journal: obs.NewJournal(&sink)})
	if err != nil {
		t.Fatal(err)
	}
	report := &Report{}
	for i := 0; i < 2; i++ {
		it, done, err := s.step(i, report)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("iteration %d ended the run: %v/%v", i, report.Verdict, report.Kind)
		}
		report.Iterations = append(report.Iterations, *it)
	}
	if d.worn != nondetAttempts {
		t.Fatalf("%d re-executions missed x, want the probe's %d", d.worn, nondetAttempts)
	}
	it := report.Iterations[1]
	if it.Test != TestDiverged {
		t.Fatalf("iteration 1 test = %v, want diverged (the open share answers the offer)", it.Test)
	}
	if len(it.Probes) != 0 || it.ProbeDuration != 0 {
		t.Fatalf("iteration 1 recorded %d probes over %v, want none", len(it.Probes), it.ProbeDuration)
	}
	if got := sumStats(report.Iterations).ProbesRun; got != 1 {
		t.Fatalf("ProbesRun = %d, want iteration 0's one probe", got)
	}
	for _, e := range sink.Events() {
		if e.Kind == obs.KindProbeResult && e.Iter == 1 {
			t.Fatalf("iteration 1 journaled a probe_result: %+v", e)
		}
	}
	if spent := it.TestDuration - it.ReplayDuration; spent < nondetAttempts*pause {
		t.Fatalf("test span outside replay = %v, want at least the unreached re-executions' %v",
			spent, nondetAttempts*pause)
	}
}
