package replay

import (
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// racyComponent: at s0 input a races outputs {x} → s1 and {y} → s0; at s1
// input a is consumed silently back to s0. Input b is refused everywhere.
func racyComponent(t *testing.T) (*legacy.NondetComponent, legacy.Interface) {
	t.Helper()
	a := automata.New("racy", automata.NewSignalSet("a"), automata.NewSignalSet("x", "y"))
	s0 := a.MustAddState("s0")
	s1 := a.MustAddState("s1")
	a.MarkInitial(s0)
	in := automata.NewSignalSet("a")
	a.MustAddTransition(s0, automata.Interaction{In: in, Out: automata.NewSignalSet("x")}, s1)
	a.MustAddTransition(s0, automata.Interaction{In: in, Out: automata.NewSignalSet("y")}, s0)
	a.MustAddTransition(s1, automata.Interaction{In: in, Out: automata.EmptySet}, s0)
	c := legacy.MustWrapNondet(a)
	return c, c.InterfaceOf()
}

func TestReplayNondetFollowsActualBehavior(t *testing.T) {
	comp, iface := racyComponent(t)
	inputs := []automata.SignalSet{automata.NewSignalSet("a"), automata.NewSignalSet("a")}
	rec := Record(comp, iface, inputs)
	if !rec.Completed() {
		t.Fatalf("recording blocked at %d", rec.BlockedAt)
	}
	// The fair scheduler took branch x/s1 on visit 0; the re-execution
	// advances the (s0, a) counter and takes y/s0, diverging at period 0.
	run, divs, err := ReplayNondet(comp, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) == 0 {
		t.Fatal("expected at least one divergence from the recording")
	}
	d := divs[0]
	if d.Period != 0 || d.State != "s0" || !d.Allowed || d.ObservedRefused || d.RecordedRefused {
		t.Fatalf("divergence = %+v", d)
	}
	if !d.Observed.Equal(automata.NewSignalSet("y")) || !d.Recorded.Equal(automata.NewSignalSet("x")) {
		t.Fatalf("divergence outputs = %+v", d)
	}
	// The observed run reflects what actually ran, not the recording.
	if len(run.Steps) != 2 || run.Steps[0].To != "s0" {
		t.Fatalf("observed run = %+v", run)
	}
	// Deterministic replay keeps hard-failing on divergence. After the
	// record and the replay above, the first-occurrence cursor of (s0, a)
	// is back on the x branch, so a recording expecting y cannot match.
	recY := Recording{
		Iface:     iface,
		Inputs:    inputs[:1],
		Outputs:   []automata.SignalSet{automata.NewSignalSet("y")},
		BlockedAt: -1,
	}
	if _, err := Replay(comp, recY); err == nil {
		t.Fatal("deterministic Replay must still reject divergence")
	}
}

func TestReplayNondetEmitsQuiescence(t *testing.T) {
	comp, iface := racyComponent(t)
	// Drive to s1 (x branch on visit 0), then a consumed silently: the
	// second period produces no output and must render as [Quiescence].
	inputs := []automata.SignalSet{automata.NewSignalSet("a"), automata.NewSignalSet("a")}
	rec := Record(comp, iface, inputs)
	// Reset fairness history so the re-execution retakes the x branch:
	// wrap a fresh component over the same automaton.
	fresh, _ := racyComponent(t)
	_, divs, err := ReplayNondet(fresh, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 0 {
		t.Fatalf("fresh component should reproduce the recording, got %v", divs)
	}
	run, _, err := ReplayNondet(freshAt(t), rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := ReplayTrace(iface, run, true).Render()
	if !strings.Contains(text, "[Quiescence] count=2") {
		t.Fatalf("missing quiescence event:\n%s", text)
	}
	if strings.Contains(text, "[Quiescence] count=1") {
		t.Fatalf("period 1 produced output; no quiescence expected:\n%s", text)
	}
	if deterministic := ReplayTrace(iface, run, false).Render(); strings.Contains(deterministic, "[Quiescence]") {
		t.Fatalf("deterministic rendering shows quiescence:\n%s", deterministic)
	}
}

func freshAt(t *testing.T) *legacy.NondetComponent {
	t.Helper()
	c, _ := racyComponent(t)
	return c
}

func TestReplayNondetClassifiesAgainstFragment(t *testing.T) {
	comp, iface := racyComponent(t)
	inputs := []automata.SignalSet{automata.NewSignalSet("a")}
	rec := Record(comp, iface, inputs)

	frag := automata.New("learned", automata.NewSignalSet("a"), automata.NewSignalSet("x", "y"))
	s0 := frag.MustAddState("s0")
	frag.MarkInitial(s0)
	m := automata.NewIncomplete(frag)
	// The fragment refutes y at s0: the y-branch divergence is an escape.
	if err := m.Block(s0, automata.Interaction{In: automata.NewSignalSet("a"), Out: automata.NewSignalSet("y")}); err != nil {
		t.Fatal(err)
	}
	_, divs, err := ReplayNondet(comp, rec, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 1 || divs[0].Allowed {
		t.Fatalf("blocked observation must classify as not allowed: %+v", divs)
	}
	if s := divs[0].String(); !strings.Contains(s, "observed {y}") {
		t.Fatalf("divergence rendering: %s", s)
	}
}

func TestProbeNondetReachesRecordedState(t *testing.T) {
	comp, iface := racyComponent(t)
	inputs := []automata.SignalSet{automata.NewSignalSet("a")}
	rec := Record(comp, iface, inputs) // lands in s1 via the x branch
	// The next prefix re-execution takes the y branch (lands s0); with
	// retries the round-robin returns to the x branch and reaches s1.
	res, runs, reached, err := ProbeNondet(comp, rec, automata.NewSignalSet("a"), "s1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatalf("never reached s1 in 4 tries; runs=%v", runs)
	}
	if !res.Accepted || !res.Output.IsEmpty() || res.After != "s0" {
		t.Fatalf("probe at s1 = %+v, want silent step to s0", res)
	}
	if len(runs) < 2 {
		t.Fatalf("expected missed attempts to be reported, got %d runs", len(runs))
	}
	// Every returned run is learnable: states and labels are real.
	for _, r := range runs {
		if r.Initial != "s0" {
			t.Fatalf("run initial = %q", r.Initial)
		}
	}
}

func TestProbeNondetUnreachableState(t *testing.T) {
	comp, iface := racyComponent(t)
	rec := Record(comp, iface, nil) // empty prefix: always at s0
	_, runs, reached, err := ProbeNondet(comp, rec, automata.NewSignalSet("a"), "s1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("empty prefix cannot land in s1")
	}
	if len(runs) != 3 {
		t.Fatalf("expected 3 attempt runs, got %d", len(runs))
	}
}

// Satellite regression: a probe refusing the empty input is the quiescence
// observation δ, distinguishable from a refused real input.
func TestProbeQuiescenceVersusRefusal(t *testing.T) {
	comp, iface := racyComponent(t)
	rec := Record(comp, iface, nil)
	// s0 has no spontaneous behavior: probing ∅ observes quiescence.
	res, err := Probe(comp, rec, automata.EmptySet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || !res.Quiescent {
		t.Fatalf("empty-input probe = %+v, want refused+quiescent", res)
	}
	// b is refused at s0: a genuine refusal, not quiescence.
	res, err = Probe(comp, rec, automata.NewSignalSet("b"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Quiescent {
		t.Fatalf("refused-input probe = %+v, want refused+not-quiescent", res)
	}
}
