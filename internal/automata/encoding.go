package automata

import (
	"encoding/json"
	"fmt"
)

// This file provides a stable JSON interchange format for automata and
// incomplete automata, so that models can be stored, exchanged with other
// tools, and fed to the command-line frontends.

// automatonJSON is the serialized form of an Automaton.
type automatonJSON struct {
	Name        string           `json:"name"`
	Inputs      []Signal         `json:"inputs"`
	Outputs     []Signal         `json:"outputs"`
	States      []stateJSON      `json:"states"`
	Transitions []transitionJSON `json:"transitions"`
	Initial     []string         `json:"initial"`
}

type stateJSON struct {
	Name   string        `json:"name"`
	Labels []Proposition `json:"labels,omitempty"`
}

type transitionJSON struct {
	From string   `json:"from"`
	In   []Signal `json:"in,omitempty"`
	Out  []Signal `json:"out,omitempty"`
	To   string   `json:"to"`
}

type incompleteJSON struct {
	Automaton automatonJSON    `json:"automaton"`
	Blocked   []transitionJSON `json:"blocked,omitempty"` // To field unused
}

// EncodeJSON serializes the automaton. Leaf provenance of composed
// automata is not preserved; encode the parts individually if needed.
func EncodeJSON(a *Automaton) ([]byte, error) {
	return json.MarshalIndent(toJSON(a), "", "  ")
}

func toJSON(a *Automaton) automatonJSON {
	out := automatonJSON{
		Name:    a.name,
		Inputs:  a.inputs.Signals(),
		Outputs: a.outputs.Signals(),
	}
	for i := 0; i < a.NumStates(); i++ {
		s := StateID(i)
		out.States = append(out.States, stateJSON{Name: a.StateName(s), Labels: a.Labels(s)})
	}
	for _, ts := range a.adj {
		for _, t := range ts {
			out.Transitions = append(out.Transitions, transitionJSON{
				From: a.StateName(t.From),
				In:   t.Label.In.Signals(),
				Out:  t.Label.Out.Signals(),
				To:   a.StateName(t.To),
			})
		}
	}
	for _, q := range a.Initial() {
		out.Initial = append(out.Initial, a.StateName(q))
	}
	return out
}

// DecodeJSON deserializes an automaton and validates it.
func DecodeJSON(data []byte) (*Automaton, error) {
	var spec automatonJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("automata: decode: %w", err)
	}
	return fromJSON(spec)
}

func fromJSON(spec automatonJSON) (*Automaton, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("automata: decode: missing automaton name")
	}
	a := New(spec.Name, NewSignalSet(spec.Inputs...), NewSignalSet(spec.Outputs...))
	for _, st := range spec.States {
		if _, err := a.AddState(st.Name, st.Labels...); err != nil {
			return nil, err
		}
	}
	for _, t := range spec.Transitions {
		from := a.State(t.From)
		to := a.State(t.To)
		if from == NoState || to == NoState {
			return nil, fmt.Errorf("automata: decode: transition references unknown state %q or %q", t.From, t.To)
		}
		label := Interaction{In: NewSignalSet(t.In...), Out: NewSignalSet(t.Out...)}
		if err := a.AddTransition(from, label, to); err != nil {
			return nil, err
		}
	}
	for _, name := range spec.Initial {
		id := a.State(name)
		if id == NoState {
			return nil, fmt.Errorf("automata: decode: unknown initial state %q", name)
		}
		a.MarkInitial(id)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// EncodeIncompleteJSON serializes an incomplete automaton including its
// blocked set T̄.
func EncodeIncompleteJSON(m *Incomplete) ([]byte, error) {
	spec := incompleteJSON{Automaton: toJSON(m.auto)}
	for i := 0; i < m.auto.NumStates(); i++ {
		s := StateID(i)
		for _, x := range m.BlockedAt(s) {
			spec.Blocked = append(spec.Blocked, transitionJSON{
				From: m.auto.StateName(s),
				In:   x.In.Signals(),
				Out:  x.Out.Signals(),
			})
		}
	}
	return json.MarshalIndent(spec, "", "  ")
}

// DecodeIncompleteJSON deserializes an incomplete automaton.
func DecodeIncompleteJSON(data []byte) (*Incomplete, error) {
	var spec incompleteJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("automata: decode: %w", err)
	}
	a, err := fromJSON(spec.Automaton)
	if err != nil {
		return nil, err
	}
	m := NewIncomplete(a)
	for _, b := range spec.Blocked {
		s := a.State(b.From)
		if s == NoState {
			return nil, fmt.Errorf("automata: decode: blocked entry references unknown state %q", b.From)
		}
		label := Interaction{In: NewSignalSet(b.In...), Out: NewSignalSet(b.Out...)}
		if err := m.Block(s, label); err != nil {
			return nil, err
		}
	}
	return m, nil
}
