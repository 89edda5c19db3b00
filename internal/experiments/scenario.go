// Package experiments regenerates every figure, listing, and evaluation
// claim of the paper (see DESIGN.md, "Per-experiment index") and the
// additional quantitative sweeps that put the paper's qualitative claims
// against the L*/conformance-testing baselines.
package experiments

import (
	"fmt"
	"math/rand"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// Scenario is one randomly generated integration problem: a deterministic
// legacy component (the full machine) and a context that exercises only a
// part of it (the mirror of a random sub-protocol). The paper's central
// claim is that the synthesis loop decides correctness while learning only
// the context-relevant part.
type Scenario struct {
	// Legacy is the full ground-truth behavior of the component.
	Legacy *automata.Automaton
	// Component is the black-box view of Legacy.
	Component legacy.Component
	// Iface is the component's structural interface.
	Iface legacy.Interface
	// Context drives a sub-protocol of Legacy (mirrored alphabet).
	Context *automata.Automaton
	// RelevantStates is the number of legacy states the context can reach
	// (the size of the sub-protocol).
	RelevantStates int
}

// scenarioInputs and scenarioOutputs are the closed-world alphabets of
// generated scenarios (plus the empty step).
var (
	scenarioInputs  = []automata.Signal{"x", "y"}
	scenarioOutputs = []automata.Signal{"u", "v"}
)

// GenerateScenario builds a random scenario with the given total legacy
// state count and a context walk budget (number of random protocol walks
// folded into the context).
func GenerateScenario(rng *rand.Rand, states, walks, walkLen int) *Scenario {
	full := randomLegacyMachine(rng, states)
	sub := subProtocol(rng, full, walks, walkLen)
	context := mirror(sub, "context")
	comp := legacy.MustWrapAutomaton(full)
	return &Scenario{
		Legacy:    full,
		Component: comp,
		Iface: legacy.Interface{
			Name:    full.Name(),
			Inputs:  full.Inputs(),
			Outputs: full.Outputs(),
		},
		Context:        context,
		RelevantStates: countReachable(sub),
	}
}

// randomLegacyMachine generates a function-deterministic machine where
// every state defines at least the empty-input reaction, so protocol walks
// can always continue.
func randomLegacyMachine(rng *rand.Rand, states int) *automata.Automaton {
	a := automata.New("legacy",
		automata.NewSignalSet(scenarioInputs...),
		automata.NewSignalSet(scenarioOutputs...))
	for i := 0; i < states; i++ {
		a.MustAddState(fmt.Sprintf("s%d", i))
	}
	a.MarkInitial(0)

	inputs := []automata.SignalSet{automata.EmptySet}
	for _, in := range scenarioInputs {
		inputs = append(inputs, automata.NewSignalSet(in))
	}
	outputs := []automata.SignalSet{automata.EmptySet}
	for _, out := range scenarioOutputs {
		outputs = append(outputs, automata.NewSignalSet(out))
	}

	for s := 0; s < states; s++ {
		for idx, in := range inputs {
			// The empty input always has a defined reaction; others are
			// defined with probability 2/3.
			if idx > 0 && rng.Intn(3) == 0 {
				continue
			}
			label := automata.Interaction{In: in, Out: outputs[rng.Intn(len(outputs))]}
			// Bias successors toward higher state numbers so that most of
			// the machine is reachable.
			to := automata.StateID(rng.Intn(states))
			a.MustAddTransition(automata.StateID(s), label, to)
		}
	}
	return a
}

// subProtocol selects a deadlock-free sub-automaton of the machine by
// folding random walks: each walk follows defined reactions and is
// extended until it closes a cycle within the selected transitions, so
// every selected state keeps at least one outgoing selected transition.
func subProtocol(rng *rand.Rand, full *automata.Automaton, walks, walkLen int) *automata.Automaton {
	sub := automata.New(full.Name()+"-sub", full.Inputs(), full.Outputs())
	for i := 0; i < full.NumStates(); i++ {
		sub.MustAddState(full.StateName(automata.StateID(i)))
	}
	sub.MarkInitial(full.Initial()[0])

	hasOut := make([]bool, full.NumStates())
	addEdge := func(t automata.Transition) {
		_ = sub.AddTransition(t.From, t.Label, t.To)
		hasOut[t.From] = true
	}

	for w := 0; w < walks; w++ {
		cur := full.Initial()[0]
		for step := 0; ; step++ {
			ts := full.TransitionsFrom(cur)
			t := ts[rng.Intn(len(ts))]
			addEdge(t)
			cur = t.To
			if step >= walkLen && hasOut[cur] {
				break // cycle closed: the walk's final state can continue
			}
			if step > walkLen+full.NumStates()+4 {
				// Defensive: force-close by following any defined edge
				// until a covered state appears; every state has one.
				break
			}
		}
		// Ensure the final state has an outgoing edge.
		if !hasOut[cur] {
			addEdge(full.TransitionsFrom(cur)[0])
		}
	}
	return sub.Trim(sub.Name())
}

// mirror swaps the alphabet of a protocol automaton: the context consumes
// what the component produces and vice versa.
func mirror(proto *automata.Automaton, name string) *automata.Automaton {
	m := automata.New(name, proto.Outputs(), proto.Inputs())
	for i := 0; i < proto.NumStates(); i++ {
		m.MustAddState(proto.StateName(automata.StateID(i)))
	}
	for _, q := range proto.Initial() {
		m.MarkInitial(q)
	}
	for s := 0; s < proto.NumStates(); s++ {
		for _, t := range proto.TransitionsFrom(automata.StateID(s)) {
			label := automata.Interaction{In: t.Label.Out, Out: t.Label.In}
			_ = m.AddTransition(t.From, label, t.To)
		}
	}
	return m
}

func countReachable(a *automata.Automaton) int {
	n := 0
	for _, ok := range a.Reachable() {
		if ok {
			n++
		}
	}
	return n
}

// MutateScenario returns a copy of the scenario whose legacy machine has
// one fault injected into the context-relevant part: a random relevant
// transition's output is changed (or the transition dropped), so the
// integration may now misbehave. Used by the fault-injection experiment.
func MutateScenario(rng *rand.Rand, s *Scenario) *Scenario {
	mutated := s.Legacy.Clone("legacy")
	// Pick a transition reachable in the composition: approximate with a
	// transition of the sub-protocol (mirrored by the context).
	var candidates []automata.Transition
	for i := 0; i < s.Context.NumStates(); i++ {
		for _, t := range s.Context.TransitionsFrom(automata.StateID(i)) {
			// Context transition (In=B, Out=A) mirrors legacy (A, B).
			legacyLabel := automata.Interaction{In: t.Label.Out, Out: t.Label.In}
			from := mutated.State(s.Context.StateName(t.From))
			if from == automata.NoState {
				continue
			}
			for _, lt := range mutated.TransitionsFrom(from) {
				if lt.Label.Equal(legacyLabel) {
					candidates = append(candidates, lt)
				}
			}
		}
	}
	if len(candidates) == 0 {
		return s
	}
	victim := candidates[rng.Intn(len(candidates))]
	rebuilt := automata.New("legacy", mutated.Inputs(), mutated.Outputs())
	for i := 0; i < mutated.NumStates(); i++ {
		rebuilt.MustAddState(mutated.StateName(automata.StateID(i)))
	}
	rebuilt.MarkInitial(mutated.Initial()[0])
	for i := 0; i < mutated.NumStates(); i++ {
		for _, t := range mutated.TransitionsFrom(automata.StateID(i)) {
			if t.From == victim.From && t.Label.Equal(victim.Label) && t.To == victim.To {
				if rng.Intn(2) == 0 {
					continue // drop the transition (component refuses now)
				}
				// Flip the output.
				newOut := automata.NewSignalSet(scenarioOutputs[rng.Intn(len(scenarioOutputs))])
				if newOut.Equal(t.Label.Out) {
					newOut = automata.EmptySet
				}
				_ = rebuilt.AddTransition(t.From, automata.Interaction{In: t.Label.In, Out: newOut}, t.To)
				continue
			}
			_ = rebuilt.AddTransition(t.From, t.Label, t.To)
		}
	}
	return &Scenario{
		Legacy:         rebuilt,
		Component:      legacy.MustWrapAutomaton(rebuilt),
		Iface:          legacy.Interface{Name: "legacy", Inputs: rebuilt.Inputs(), Outputs: rebuilt.Outputs()},
		Context:        s.Context,
		RelevantStates: s.RelevantStates,
	}
}
