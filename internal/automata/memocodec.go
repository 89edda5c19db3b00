package automata

import (
	"encoding/json"
	"fmt"
)

// This file is the serialization codec behind the persistent memo store
// (internal/memostore): a full-fidelity interchange format for memoized
// construction results. It differs from the public EncodeJSON format in
// that it preserves everything a memo handout preserves — composed-state
// provenance (parts) and the leaf decomposition — because a warm-started
// closure or product must behave exactly like a freshly built one:
// counterexample classification (IsChaosState) and run projection read
// that provenance.
//
// The payload is versioned so a decoder never misinterprets records
// written by an older or newer layout; a version mismatch is an error the
// caller treats as a cache miss (and evicts the on-disk record).

// memoCodecVersion is bumped whenever the serialized layout changes
// incompatibly. Decoding any other version fails.
const memoCodecVersion = 1

type memoDocJSON struct {
	V       int            `json:"v"`
	Name    string         `json:"name"`
	Inputs  []Signal       `json:"in,omitempty"`
	Outputs []Signal       `json:"out,omitempty"`
	Leaves  []memoLeafJSON `json:"leaves,omitempty"`
	States  []memoStatJSON `json:"states,omitempty"`
	Initial []int          `json:"initial,omitempty"`
	// Adj holds one row per state, index-aligned with States.
	Adj [][]memoEdgeJSON `json:"adj,omitempty"`
}

type memoLeafJSON struct {
	Name    string   `json:"name"`
	Inputs  []Signal `json:"in,omitempty"`
	Outputs []Signal `json:"out,omitempty"`
}

type memoStatJSON struct {
	Name   string        `json:"name"`
	Labels []Proposition `json:"labels,omitempty"`
	Parts  []string      `json:"parts,omitempty"`
}

type memoEdgeJSON struct {
	In  []Signal `json:"in,omitempty"`
	Out []Signal `json:"out,omitempty"`
	To  int      `json:"to"`
}

// MarshalMemo serializes the automaton with full fidelity (provenance
// parts and leaf decomposition included) for the persistent memo store.
func MarshalMemo(a *Automaton) ([]byte, error) {
	a.materialize()
	doc := memoDocJSON{
		V:       memoCodecVersion,
		Name:    a.name,
		Inputs:  a.inputs.Signals(),
		Outputs: a.outputs.Signals(),
	}
	for _, l := range a.leaves {
		doc.Leaves = append(doc.Leaves, memoLeafJSON{
			Name: l.name, Inputs: l.inputs.Signals(), Outputs: l.outputs.Signals(),
		})
	}
	for _, st := range a.states {
		doc.States = append(doc.States, memoStatJSON{
			Name: st.name, Labels: st.labels, Parts: st.parts,
		})
	}
	for _, q := range a.initial {
		doc.Initial = append(doc.Initial, int(q))
	}
	doc.Adj = make([][]memoEdgeJSON, len(a.adj))
	for i, row := range a.adj {
		edges := make([]memoEdgeJSON, len(row))
		for k, t := range row {
			edges[k] = memoEdgeJSON{In: t.Label.In.Signals(), Out: t.Label.Out.Signals(), To: int(t.To)}
		}
		doc.Adj[i] = edges
	}
	return json.Marshal(doc)
}

// UnmarshalMemo reconstructs a MarshalMemo payload. It validates the codec
// version, every state reference, and every edge label — within the
// automaton's alphabets, and no (label, target) twice in a row —
// so a payload from a different layout or a damaged record yields an error
// (a clean memo miss) instead of a malformed automaton that the interned
// constructions downstream would reject or duplicate edges from.
func UnmarshalMemo(data []byte) (*Automaton, error) {
	var doc memoDocJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("automata: memo decode: %w", err)
	}
	if doc.V != memoCodecVersion {
		return nil, fmt.Errorf("automata: memo decode: codec version %d, want %d", doc.V, memoCodecVersion)
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("automata: memo decode: missing automaton name")
	}
	if len(doc.Adj) != len(doc.States) {
		return nil, fmt.Errorf("automata: memo decode: %d adjacency rows for %d states", len(doc.Adj), len(doc.States))
	}
	inputs, outputs := NewSignalSet(doc.Inputs...), NewSignalSet(doc.Outputs...)
	in, err := NewInterner(inputs, outputs)
	if err != nil {
		return nil, fmt.Errorf("automata: memo decode: %w", err)
	}
	type edgeKey struct {
		label InternKey
		to    int
	}
	seen := make(map[edgeKey]struct{})

	a := New(doc.Name, inputs, outputs)
	if len(doc.Leaves) > 0 {
		a.leaves = a.leaves[:0]
		for _, l := range doc.Leaves {
			a.leaves = append(a.leaves, leafInfo{
				name: l.Name, inputs: NewSignalSet(l.Inputs...), outputs: NewSignalSet(l.Outputs...),
			})
		}
	}
	for i, st := range doc.States {
		if st.Name == "" {
			return nil, fmt.Errorf("automata: memo decode: state %d has no name", i)
		}
		if _, dup := a.index[st.Name]; dup {
			return nil, fmt.Errorf("automata: memo decode: duplicate state %q", st.Name)
		}
		a.states = append(a.states, stateInfo{
			name:   st.Name,
			labels: append([]Proposition(nil), st.Labels...),
			parts:  append([]string(nil), st.Parts...),
		})
		a.index[st.Name] = StateID(i)
	}
	a.adj = make([][]Transition, len(doc.States))
	for i, row := range doc.Adj {
		ts := make([]Transition, len(row))
		clear(seen)
		for k, e := range row {
			if e.To < 0 || e.To >= len(doc.States) {
				return nil, fmt.Errorf("automata: memo decode: state %d edge %d targets unknown state %d", i, k, e.To)
			}
			label := Interaction{In: NewSignalSet(e.In...), Out: NewSignalSet(e.Out...)}
			if !label.In.SubsetOf(inputs) || !label.Out.SubsetOf(outputs) {
				return nil, fmt.Errorf("automata: memo decode: state %d edge %d label %v outside the alphabets", i, k, label)
			}
			lk, _ := in.Key(label)
			if _, dup := seen[edgeKey{lk, e.To}]; dup {
				return nil, fmt.Errorf("automata: memo decode: state %d edge %d repeats %v to state %d", i, k, label, e.To)
			}
			seen[edgeKey{lk, e.To}] = struct{}{}
			ts[k] = Transition{From: StateID(i), Label: label, To: StateID(e.To)}
		}
		a.adj[i] = ts
	}
	for _, q := range doc.Initial {
		if q < 0 || q >= len(doc.States) {
			return nil, fmt.Errorf("automata: memo decode: unknown initial state %d", q)
		}
		a.initial = append(a.initial, StateID(q))
	}
	return a, nil
}
