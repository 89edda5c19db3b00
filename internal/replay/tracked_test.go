package replay

import (
	"testing"

	"muml/internal/automata"
	"muml/internal/railcab"
)

// countedShuttle is a correct shuttle that counts the resets and steps it
// is driven through.
type countedShuttle struct {
	railcab.CorrectShuttle
	resets, steps int
}

func (c *countedShuttle) Reset() {
	c.resets++
	c.CorrectShuttle.Reset()
}

func (c *countedShuttle) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	c.steps++
	return c.CorrectShuttle.Step(in)
}

// probeCost probes t past rec with in and returns the result and the
// resets and steps the probe cost the shuttle.
func probeCost(t *testing.T, tr *Tracked, c *countedShuttle, rec Recording, in automata.SignalSet) (ProbeResult, int, int) {
	t.Helper()
	resets, steps := c.resets, c.steps
	res, err := Probe(tr, rec, in)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.resets - resets, c.steps - steps
}

func TestProbeAfterRefusedProbeStepsOnce(t *testing.T) {
	c := &countedShuttle{}
	tr := Track(c)
	rec := Record(tr, rearIface(), planInputs("")) // proposal sent, now waiting
	refused := automata.NewSignalSet(railcab.BreakConvoyAccepted)
	if res, resets, steps := probeCost(t, tr, c, rec, refused); res.Accepted || resets != 1 || steps != 2 {
		t.Fatalf("first probe after a record: %+v, %d resets, %d steps; want refused, 1 reset, 2 steps", res, resets, steps)
	}
	res, resets, steps := probeCost(t, tr, c, rec, automata.NewSignalSet(railcab.StartConvoy))
	if resets != 0 || steps != 1 {
		t.Fatalf("probe after a refused probe: %d resets, %d steps; want 0 and 1", resets, steps)
	}
	if !res.Accepted || res.State != "noConvoy::wait" || res.After != "convoy::cruise" {
		t.Fatalf("probe after a refused probe = %+v", res)
	}
}

func TestProbeAfterAcceptedProbeResets(t *testing.T) {
	c := &countedShuttle{}
	tr := Track(c)
	rec := Record(tr, rearIface(), planInputs(""))
	if _, err := Replay(tr, rec); err != nil {
		t.Fatal(err)
	}
	start := automata.NewSignalSet(railcab.StartConvoy)
	for i, want := range []int{0, 1} {
		res, resets, steps := probeCost(t, tr, c, rec, start)
		if resets != want || steps != 1+want {
			t.Fatalf("probe %d: %d resets, %d steps; want %d and %d", i, resets, steps, want, 1+want)
		}
		if !res.Accepted || res.State != "noConvoy::wait" || res.After != "convoy::cruise" {
			t.Fatalf("probe %d = %+v", i, res)
		}
	}
}

func TestProbeContinuesAnExtendedRecording(t *testing.T) {
	c := &countedShuttle{}
	tr := Track(c)
	rec := Record(tr, rearIface(), planInputs(""))
	start := automata.NewSignalSet(railcab.StartConvoy)
	res, _, _ := probeCost(t, tr, c, rec, start)
	longer := Recording{Iface: rec.Iface, BlockedAt: -1,
		Inputs:  append(append([]automata.SignalSet(nil), rec.Inputs...), start),
		Outputs: append(append([]automata.SignalSet(nil), rec.Outputs...), res.Output)}
	next, resets, steps := probeCost(t, tr, c, longer, automata.EmptySet)
	if resets != 0 || steps != 1 {
		t.Fatalf("probe past the executed run: %d resets, %d steps; want 0 and 1", resets, steps)
	}
	if next.State != res.After {
		t.Fatalf("probe past the executed run starts in %q, want %q", next.State, res.After)
	}
}

// TestProbeResetsWhereTheRecordDoesNotLead requires a reset wherever the
// record does not say the component stands in the recording: after steps
// run without heavy probes (Record), after a nondeterministic replay, and
// when the executed run diverges from the recording's outputs.
func TestProbeResetsWhereTheRecordDoesNotLead(t *testing.T) {
	c := &countedShuttle{}
	tr := Track(c)
	rec := Record(tr, rearIface(), planInputs(""))
	refused := automata.NewSignalSet(railcab.BreakConvoyAccepted)
	if _, resets, _ := probeCost(t, tr, c, rec, refused); resets != 1 {
		t.Fatalf("probe after Record: %d resets, want 1", resets)
	}
	if _, _, err := ReplayNondet(tr, rec, nil); err != nil {
		t.Fatal(err)
	}
	if _, resets, _ := probeCost(t, tr, c, rec, refused); resets != 1 {
		t.Fatalf("probe after ReplayNondet: %d resets, want 1", resets)
	}
	// The refused probe left the shuttle at the end of rec, but not of a
	// recording with other outputs: the probe re-executes it and fails.
	other := rec
	other.Outputs = []automata.SignalSet{automata.EmptySet}
	resets := c.resets
	if _, err := Probe(tr, other, refused); err == nil {
		t.Fatal("probe of a recording whose outputs the component never gave did not fail")
	}
	if c.resets != resets+1 {
		t.Fatalf("probe of a diverging recording: %d resets, want 1", c.resets-resets)
	}
	if tr.Resets() != c.resets {
		t.Fatalf("the record counts %d resets, the shuttle saw %d", tr.Resets(), c.resets)
	}
}
