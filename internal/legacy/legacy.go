// Package legacy provides the black-box harness around a legacy component:
// the deterministic reactive component abstraction, adapters, and the test
// executor that drives model-checking counterexamples against the real
// implementation (Section 4.2 and Section 5 of the paper).
//
// A legacy component is any deterministic implementation that reacts to
// one set of input signals per discrete time unit with one set of output
// signals. The synthesis loop never inspects its internals; state names
// are obtained only through the optional Introspector interface during
// deterministic replay (white-box probes, Section 5).
package legacy

import (
	"fmt"
	"sort"

	"muml/internal/automata"
)

// Component is a deterministic reactive implementation under integration.
//
// Determinism requirement (Section 4.3): for a given state and input set
// the component must always produce the same output set and successor
// state ("any non-determinism or pseudo non-determinism is excluded" in
// the safety-critical domain). The harness relies on this for learning and
// for deterministic replay.
type Component interface {
	// Reset returns the component to its initial state.
	Reset()
	// Step executes one time unit: the component consumes the input
	// signals and returns the produced output signals. accepted = false
	// means the component refuses to execute under this input (a blocked
	// interaction); the component's state must then be unchanged.
	Step(in automata.SignalSet) (out automata.SignalSet, accepted bool)
}

// Introspector is implemented by components that can report their current
// state name. It is only consulted during deterministic replay, where
// added instrumentation has no effect on the execution (Section 5).
type Introspector interface {
	// StateName returns the name of the current control state, e.g.
	// "noConvoy::default".
	StateName() string
}

// Interface is the structural interface description of a legacy component,
// the only information available before learning starts (Section 3).
type Interface struct {
	// Name of the component.
	Name string
	// Inputs and Outputs are the signal alphabets from the architectural
	// model (port and interface definitions).
	Inputs  automata.SignalSet
	Outputs automata.SignalSet
	// Ports maps each signal to the port it belongs to, for rendering
	// monitored events ("portName=rearRole").
	Ports map[automata.Signal]string
}

// PortOf returns the port name of a signal, or "" if unknown.
func (i Interface) PortOf(sig automata.Signal) string {
	if i.Ports == nil {
		return ""
	}
	return i.Ports[sig]
}

// Validate checks the interface description.
func (i Interface) Validate() error {
	if i.Name == "" {
		return fmt.Errorf("legacy: interface without component name")
	}
	if !i.Inputs.Disjoint(i.Outputs) {
		return fmt.Errorf("legacy: interface %q: inputs and outputs overlap: %v",
			i.Name, i.Inputs.Intersect(i.Outputs))
	}
	return nil
}

// AutomatonComponent wraps a function-deterministic automaton as a
// Component, for simulations and baselines. The automaton must have
// exactly one initial state and at most one transition per (state, input
// set) pair.
type AutomatonComponent struct {
	auto *automata.Automaton
	cur  automata.StateID
	init automata.StateID
}

var (
	_ Component    = (*AutomatonComponent)(nil)
	_ Introspector = (*AutomatonComponent)(nil)
)

// WrapAutomaton validates and wraps the automaton.
func WrapAutomaton(a *automata.Automaton) (*AutomatonComponent, error) {
	init := a.InitialState()
	if init == automata.NoState {
		return nil, fmt.Errorf("legacy: automaton %q must have exactly one initial state", a.Name())
	}
	if err := checkDeterministic(a); err != nil {
		return nil, err
	}
	return &AutomatonComponent{auto: a, cur: init, init: init}, nil
}

// checkDeterministic is the determinism requirement of WrapAutomaton and
// FunctionDeterministic: per (state, input set) at most one transition.
// It compares the transitions within each row and reports the first
// violation in row order: a transition whose input set an earlier one of
// its row took with another output, or one whose label a later one
// repeats to another successor. (Reaching a transition, every earlier one
// of its row has an input set of its own, so an earlier one on the same
// input set differs in its output.)
func checkDeterministic(a *automata.Automaton) error {
	for s := 0; s < a.NumStates(); s++ {
		row := a.TransitionsFrom(automata.StateID(s))
		for j, t := range row {
			for _, u := range row[:j] {
				if u.Label.In.Equal(t.Label.In) {
					return fmt.Errorf("legacy: automaton %q is not function-deterministic at %q for input %v",
						a.Name(), a.StateName(automata.StateID(s)), t.Label.In)
				}
			}
			for _, u := range row[j+1:] {
				if u.Label.Equal(t.Label) {
					return fmt.Errorf("legacy: automaton %q is nondeterministic at %q on %v",
						a.Name(), a.StateName(automata.StateID(s)), t.Label)
				}
			}
		}
	}
	return nil
}

// MustWrapAutomaton is WrapAutomaton but panics on error.
func MustWrapAutomaton(a *automata.Automaton) *AutomatonComponent {
	c, err := WrapAutomaton(a)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset implements Component.
func (c *AutomatonComponent) Reset() { c.cur = c.init }

// Step implements Component.
func (c *AutomatonComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	for _, t := range c.auto.TransitionsFrom(c.cur) {
		if t.Label.In.Equal(in) {
			c.cur = t.To
			return t.Label.Out, true
		}
	}
	return automata.EmptySet, false
}

// StateName implements Introspector.
func (c *AutomatonComponent) StateName() string { return c.auto.StateName(c.cur) }

// Automaton returns the wrapped automaton (for evaluation baselines that
// are allowed to peek, e.g. perfect equivalence oracles).
func (c *AutomatonComponent) Automaton() *automata.Automaton { return c.auto }

// InterfaceOf derives the structural interface of a wrapped automaton.
func (c *AutomatonComponent) InterfaceOf() Interface {
	return Interface{
		Name:    c.auto.Name(),
		Inputs:  c.auto.Inputs(),
		Outputs: c.auto.Outputs(),
	}
}

// InitialStateName determines the initial state name of a component by
// resetting it and reading the introspection probe; this corresponds to
// "determining the initial state s₀ of M_r" in Section 3. Components
// without introspection get the conventional name "s0".
func InitialStateName(c Component) string {
	c.Reset()
	if in, ok := c.(Introspector); ok {
		return in.StateName()
	}
	return "s0"
}

// FuncComponent builds a Component from a pure transition function over
// named states, for compact hand-written controllers in tests.
type FuncComponent struct {
	Name    string
	Initial string
	// Next maps (state, canonical input key) to (outputs, next state). A
	// missing entry means the interaction is refused.
	Next map[string]map[string]FuncStep

	cur string
}

// FuncStep is the reaction of a FuncComponent.
type FuncStep struct {
	Out []automata.Signal
	To  string
}

var (
	_ Component    = (*FuncComponent)(nil)
	_ Introspector = (*FuncComponent)(nil)
)

// Reset implements Component.
func (f *FuncComponent) Reset() { f.cur = f.Initial }

// Step implements Component.
func (f *FuncComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	if f.cur == "" {
		f.cur = f.Initial
	}
	step, ok := f.Next[f.cur][in.Key()]
	if !ok {
		return automata.EmptySet, false
	}
	f.cur = step.To
	return automata.NewSignalSet(step.Out...), true
}

// StateName implements Introspector.
func (f *FuncComponent) StateName() string {
	if f.cur == "" {
		return f.Initial
	}
	return f.cur
}

// States returns the state names of the FuncComponent, sorted, for test
// assertions.
func (f *FuncComponent) States() []string {
	seen := map[string]struct{}{f.Initial: {}}
	for s, steps := range f.Next {
		seen[s] = struct{}{}
		for _, st := range steps {
			seen[st.To] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
