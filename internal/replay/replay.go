// Package replay implements the monitoring and platform-independent
// deterministic replay of Section 5 of the paper.
//
// Testing a counterexample against the legacy component proceeds in two
// phases:
//
//  1. Record: the component executes in its (simulated) environment with
//     only the minimal probes needed for deterministic replay — the
//     incoming/outgoing messages and the period number in which they
//     occur (Listing 1.2). Keeping this set minimal avoids the probe
//     effect on resource-constrained targets.
//  2. Replay: the recorded execution is reproduced deterministically from
//     the recorded data; additional instrumentation that has no effect on
//     the execution (state and timing probes) enriches the trace with the
//     information required for behavior synthesis (Listing 1.3).
//
// The replay yields an automata.ObservedRun for the learn step
// (Definitions 11-12). Both listings are rendered when read: Minimal from a
// recording, ReplayTrace from the observed run.
package replay

import (
	"fmt"
	"strings"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// ProbeAware is implemented by components whose execution is disturbed by
// heavyweight instrumentation — the *probe effect* of Section 5 (McDowell
// & Helmbold): on resource-constrained targets, monitoring all timing,
// events, and scheduling changes operation times and thus behavior.
//
// The two-phase protocol of this package keeps live executions clean: the
// record phase runs with heavy probes disabled (only messages and period
// numbers are captured, which the paper's platform supports without
// disturbance), and the state/timing probes are only enabled during
// deterministic replay, where they cannot affect the (re-)execution.
// NaiveLiveMonitor exists to demonstrate what goes wrong otherwise.
type ProbeAware interface {
	// SetHeavyProbes enables or disables heavyweight instrumentation.
	// Implementations may behave differently (and realistically: only
	// timing-wise) while heavy probes are enabled.
	SetHeavyProbes(enabled bool)
}

// Direction of a message relative to the component.
type Direction int

// Message directions.
const (
	Incoming Direction = iota + 1
	Outgoing
)

func (d Direction) String() string {
	if d == Incoming {
		return "incoming"
	}
	return "outgoing"
}

// EventKind classifies monitored events.
type EventKind int

// Monitored event kinds, mirroring the paper's listings. KindQuiescence is
// an extension for nondeterministic components (DESIGN.md §13): a period in
// which the component produced nothing renders as an explicit δ observation
// instead of silently contributing no message events. Only ReplayNondet
// emits it; deterministic replay traces are unchanged.
const (
	KindMessage EventKind = iota + 1
	KindCurrentState
	KindTiming
	KindQuiescence
)

// Event is one monitored observation.
type Event struct {
	Kind  EventKind
	Name  string    // message name or state name
	Port  string    // port for messages
	Dir   Direction // direction for messages
	Count int       // period number for timing events
}

// Render formats the event in the paper's listing style.
func (e Event) Render() string {
	switch e.Kind {
	case KindMessage:
		return fmt.Sprintf("[Message] name=%q, portName=%q, type=%q", e.Name, e.Port, e.Dir)
	case KindCurrentState:
		return fmt.Sprintf("[CurrentState] name=%q", e.Name)
	case KindQuiescence:
		return fmt.Sprintf("[Quiescence] count=%d", e.Count)
	default:
		return fmt.Sprintf("[Timing] count=%d", e.Count)
	}
}

// Trace is a sequence of monitored events.
type Trace struct {
	Events []Event
}

// Render formats the whole trace, one event per line, as in Listings
// 1.2-1.5 of the paper.
func (t Trace) Render() string {
	var b strings.Builder
	for _, e := range t.Events {
		b.WriteString(e.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// Messages returns only the message events (the minimal deterministic-
// replay record).
func (t Trace) Messages() []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Kind == KindMessage {
			out = append(out, e)
		}
	}
	return out
}

// Recording is the outcome of the record phase: the inputs fed per period
// (the deterministic replay data) and the outputs observed.
type Recording struct {
	Iface  legacy.Interface
	Inputs []automata.SignalSet // input set per period, in order
	// BlockedAt is the period index at which the component refused its
	// input, or -1 if the full plan executed.
	BlockedAt int
	// Outputs holds the observed output set per executed period.
	Outputs []automata.SignalSet
}

// Completed reports whether the full input plan executed without the
// component blocking.
func (r Recording) Completed() bool { return r.BlockedAt < 0 }

// Minimal renders the message-and-period events observed while recording
// (Listing 1.2): the messages of every executed period, nothing of a
// refused one.
func (r Recording) Minimal() Trace {
	var t Trace
	for period, out := range r.Outputs {
		appendMessageEvents(&t, r.Iface, r.Inputs[period], out, period+1)
	}
	return t
}

// Record executes the component from its initial state over the planned
// inputs, monitoring only messages and periods. If the component refuses
// an input the recording stops there.
func Record(comp legacy.Component, iface legacy.Interface, inputs []automata.SignalSet) Recording {
	if pa, ok := comp.(ProbeAware); ok {
		pa.SetHeavyProbes(false)
	}
	obsRecords.Add(1)
	obsResets.Add(1)
	comp.Reset()
	rec := Recording{Iface: iface, BlockedAt: -1}
	for period, in := range inputs {
		out, ok := comp.Step(in)
		if !ok {
			rec.BlockedAt = period
			rec.Inputs = append(rec.Inputs, in)
			break
		}
		rec.Inputs = append(rec.Inputs, in)
		rec.Outputs = append(rec.Outputs, out)
	}
	return rec
}

// Replay reproduces the recorded execution with full instrumentation:
// state probes before every period and timing probes after. It returns the
// observed run for learning, from which ReplayTrace renders the enriched
// trace (Listing 1.3).
//
// Replay fails if the component's behaviour diverges from the recording,
// which would falsify the determinism assumption of Section 4.3.
func Replay(comp legacy.Component, rec Recording) (automata.ObservedRun, error) {
	// During replay the execution is reproduced from recorded data, so
	// added instrumentation has no effect on it; heavy probes are safe.
	if pa, ok := comp.(ProbeAware); ok {
		pa.SetHeavyProbes(true)
		defer pa.SetHeavyProbes(false)
	}
	obsReplays.Add(1)
	obsResets.Add(1)
	comp.Reset()
	run := automata.ObservedRun{Initial: stateName(comp)}

	steps := len(rec.Inputs)
	if !rec.Completed() {
		steps = rec.BlockedAt
	}
	for period := 0; period < steps; period++ {
		in := rec.Inputs[period]
		out, ok := comp.Step(in)
		if !ok {
			return run, fmt.Errorf(
				"replay: period %d: component refused input %v accepted during recording (nondeterministic component)",
				period+1, in)
		}
		if !out.Equal(rec.Outputs[period]) {
			return run, fmt.Errorf(
				"replay: period %d: outputs %v diverge from recorded %v (nondeterministic component)",
				period+1, out, rec.Outputs[period])
		}
		run.Steps = append(run.Steps, automata.ObservedStep{
			Label: automata.Interaction{In: in, Out: out},
			To:    stateName(comp),
		})
	}

	if !rec.Completed() {
		// Re-establish the refusal under instrumentation.
		in := rec.Inputs[rec.BlockedAt]
		if _, ok := comp.Step(in); ok {
			return run, fmt.Errorf(
				"replay: period %d: component accepted input %v refused during recording (nondeterministic component)",
				rec.BlockedAt+1, in)
		}
		blocked := automata.Interaction{In: in}
		run.Blocked = &blocked
	}
	return run, nil
}

// ReplayTrace renders the instrumented replay of an observed run (Listing
// 1.3): before every period a state probe, then its messages and a timing
// probe, and a state probe at the end; a refused final input adds nothing.
// With nondet set, a period without output also shows the quiescence
// observation δ as a [Quiescence] event (ReplayNondet's runs).
func ReplayTrace(iface legacy.Interface, run automata.ObservedRun, nondet bool) Trace {
	var t Trace
	state := run.Initial
	for i, step := range run.Steps {
		period := i + 1
		t.Events = append(t.Events, Event{Kind: KindCurrentState, Name: state})
		appendMessageEvents(&t, iface, step.Label.In, step.Label.Out, period)
		if nondet && step.Label.Out.IsEmpty() {
			t.Events = append(t.Events, Event{Kind: KindQuiescence, Count: period})
		}
		t.Events = append(t.Events, Event{Kind: KindTiming, Count: period})
		state = step.To
	}
	t.Events = append(t.Events, Event{Kind: KindCurrentState, Name: state})
	return t
}

// Probe brings the component to the end of the recorded execution and
// then performs one additional step with the given input, reporting the
// component's reaction. This is how the executor asks "what would the
// component do next?" at the end of a counterexample without forking
// state: a deterministic re-execution of the recording reaches the same
// state every time. So a Tracked component whose record since its last
// reset is a prefix of the recording (after a refused probe there, a
// replay of it, or a probe at a shorter prefix) steps only the rest;
// any other probe resets it and re-executes the whole recording. Either
// way every recorded output is checked.
func Probe(comp legacy.Component, rec Recording, in automata.SignalSet) (ProbeResult, error) {
	if !rec.Completed() {
		return ProbeResult{}, fmt.Errorf("replay: cannot probe past a blocked recording")
	}
	if pa, ok := comp.(ProbeAware); ok {
		pa.SetHeavyProbes(true)
		defer pa.SetHeavyProbes(false)
	}
	obsProbes.Add(1)
	from := 0
	if t, ok := comp.(*Tracked); ok && t.prefixOf(rec) {
		from = len(t.inputs)
	} else {
		obsResets.Add(1)
		comp.Reset()
	}
	for period := from; period < len(rec.Inputs); period++ {
		recIn := rec.Inputs[period]
		out, ok := comp.Step(recIn)
		if !ok || !out.Equal(rec.Outputs[period]) {
			return ProbeResult{}, fmt.Errorf("replay: probe replay diverged at period %d", period+1)
		}
	}
	before := stateName(comp)
	out, ok := comp.Step(in)
	if ok {
		obsProbesAccepted.Add(1)
	} else {
		obsProbesRefused.Add(1)
	}
	return ProbeResult{
		State:     before,
		Input:     in,
		Output:    out,
		Accepted:  ok,
		Quiescent: !ok && in.IsEmpty(),
		After:     stateName(comp),
	}, nil
}

// ProbeResult is the component's reaction to a probe step.
type ProbeResult struct {
	State    string // state before the probe
	Input    automata.SignalSet
	Output   automata.SignalSet
	Accepted bool
	// Quiescent distinguishes the two faces of non-acceptance: probing the
	// empty input and not executing is the quiescence observation δ (the
	// state neither emits spontaneously nor steps silently), whereas not
	// executing a non-empty input is a genuine refusal. Before this flag
	// both surfaced identically as Accepted == false.
	Quiescent bool
	After     string // state after the probe (== State when refused)
}

// NaiveLiveMonitor runs the component over the inputs with heavyweight
// instrumentation enabled *during the live run* — the approach the paper
// rejects. For probe-sensitive components the returned trace can differ
// from what an undisturbed execution produces, demonstrating the probe
// effect the record/replay split avoids. For insensitive components it is
// equivalent to Record followed by Replay.
func NaiveLiveMonitor(comp legacy.Component, iface legacy.Interface, inputs []automata.SignalSet) Trace {
	if pa, ok := comp.(ProbeAware); ok {
		pa.SetHeavyProbes(true)
		defer pa.SetHeavyProbes(false)
	}
	comp.Reset()
	var trace Trace
	for period, in := range inputs {
		trace.Events = append(trace.Events, Event{Kind: KindCurrentState, Name: stateName(comp)})
		out, ok := comp.Step(in)
		if !ok {
			break
		}
		appendMessageEvents(&trace, iface, in, out, period+1)
		trace.Events = append(trace.Events, Event{Kind: KindTiming, Count: period + 1})
	}
	trace.Events = append(trace.Events, Event{Kind: KindCurrentState, Name: stateName(comp)})
	return trace
}

func appendMessageEvents(t *Trace, iface legacy.Interface, in, out automata.SignalSet, period int) {
	for _, sig := range in.Signals() {
		t.Events = append(t.Events, Event{
			Kind: KindMessage, Name: string(sig), Port: iface.PortOf(sig), Dir: Incoming, Count: period,
		})
	}
	for _, sig := range out.Signals() {
		t.Events = append(t.Events, Event{
			Kind: KindMessage, Name: string(sig), Port: iface.PortOf(sig), Dir: Outgoing, Count: period,
		})
	}
}

// Tracked wraps a legacy component and records what it has executed since
// its last reset: the inputs it accepted and the outputs it answered, in
// order. Probe reads the record to step a deterministic component on from
// where it stands instead of resetting it. The record is kept only while
// every step runs under heavy probes, the instrumentation Probe
// re-executes under, and the nondeterministic drivers, whose re-executions
// need not land where a recording did, clear it. Toward this package and
// legacy.InitialStateName a Tracked behaves as the component alone: it
// forwards the optional Introspector and ProbeAware interfaces.
type Tracked struct {
	comp legacy.Component
	// inputs and outputs are the steps accepted since the last reset;
	// known is false when they do not tell where the component stands.
	inputs, outputs []automata.SignalSet
	known           bool
	heavy           bool
	resets          int
}

// Track wraps a component in a Tracked; its position is unknown until its
// first reset.
func Track(comp legacy.Component) *Tracked { return &Tracked{comp: comp} }

// Reset resets the component and starts an empty record.
func (t *Tracked) Reset() {
	t.comp.Reset()
	t.resets++
	t.inputs, t.outputs, t.known = t.inputs[:0], t.outputs[:0], true
}

// Step steps the component and records an accepted step; a refused one
// leaves the component's state, and so the record, unchanged.
func (t *Tracked) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	out, ok := t.comp.Step(in)
	if ok {
		t.inputs = append(t.inputs, in)
		t.outputs = append(t.outputs, out)
	}
	t.known = t.known && t.heavy
	return out, ok
}

// StateName reports the component's state as package replay reads it.
func (t *Tracked) StateName() string { return stateName(t.comp) }

// SetHeavyProbes forwards to a ProbeAware component and notes the mode.
func (t *Tracked) SetHeavyProbes(enabled bool) {
	t.heavy = enabled
	if pa, ok := t.comp.(ProbeAware); ok {
		pa.SetHeavyProbes(enabled)
	}
}

// Resets returns the number of times the component has been reset.
func (t *Tracked) Resets() int { return t.resets }

// prefixOf reports whether the component stands in rec: what it executed
// since its last reset is a prefix of rec's periods, outputs included.
func (t *Tracked) prefixOf(rec Recording) bool {
	if !t.known || len(t.inputs) > len(rec.Inputs) {
		return false
	}
	for i, in := range t.inputs {
		if !in.Equal(rec.Inputs[i]) || !t.outputs[i].Equal(rec.Outputs[i]) {
			return false
		}
	}
	return true
}

// forget clears the record of a Tracked component, so that its next probe
// resets it.
func forget(comp legacy.Component) {
	if t, ok := comp.(*Tracked); ok {
		t.known = false
	}
}

func stateName(comp legacy.Component) string {
	if in, ok := comp.(legacy.Introspector); ok {
		return in.StateName()
	}
	return "s0"
}
