package automata

import "fmt"

// This file implements input-output conformance (ioco, Tretmans) with
// explicit quiescence over the synchronous interaction model, following
// the compositional ioco treatment of Daca & Henzinger. It is the
// conformance relation the nondeterministic synthesis path rests on
// (DESIGN.md §13): unlike the refinement preorder of Definition 4, ioco
// constrains only the *outputs* an implementation may produce after a
// suspension trace of the specification — input refusals and behavior on
// inputs the specification never accepts are unconstrained.
//
// Quiescence δ is encoded inside the interaction alphabet rather than as
// an extra symbol: a period in which the component consumes nothing and
// produces nothing is the interaction ∅/∅. A state is *quiescent* when it
// has no transition consuming the empty input — it can neither emit
// spontaneously nor advance silently, so an idle period observes δ and
// leaves it unchanged. SaturateQuiescence materializes that observation as
// an ∅/∅ self-loop, making suspension traces ordinary traces.

// DeltaInteraction is the quiescence observation δ: a period with no
// input consumed and no output produced.
var DeltaInteraction = Interaction{In: EmptySet, Out: EmptySet}

// Quiescent reports whether the state is quiescent: it has no transition
// consuming the empty input, so in an idle period it produces nothing and
// stays where it is. States with a spontaneous output (∅/B, B ≠ ∅) or a
// silent step (∅/∅ to anywhere) are not quiescent — their idle-period
// behavior is already explicit.
func (a *Automaton) Quiescent(s StateID) bool {
	for _, t := range a.TransitionsFrom(s) {
		if t.Label.In.IsEmpty() {
			return false
		}
	}
	return true
}

// SaturateQuiescence returns a copy of the automaton in which every
// quiescent state carries an explicit δ self-loop (∅/∅), plus the number
// of loops added. Saturation makes quiescence observable and repeatable —
// δ·δ·… extends any suspension trace — and is idempotent: saturating a
// saturated automaton adds nothing (a law checked by internal/mbt).
func SaturateQuiescence(a *Automaton, name string) (*Automaton, int) {
	b := a.Clone(name)
	added := 0
	for i := 0; i < b.NumStates(); i++ {
		s := StateID(i)
		if b.Quiescent(s) {
			b.MustAddTransition(s, DeltaInteraction, s)
			added++
		}
	}
	return b, added
}

// IocoRefines decides impl ioco spec over the δ-saturated automata:
// for every suspension trace σ of spec and every input A the spec accepts
// after σ, the outputs impl can produce under A after σ must be outputs
// spec allows —
//
//	out_A(impl after σ) ⊆ out_A(spec after σ)  whenever out_A(spec after σ) ≠ ∅.
//
// Quiescence participates as the δ interaction ∅/∅, so a quiescent
// implementation state conforms only where the specification can also be
// quiescent (or step silently). Asymmetries inherited from ioco: impl may
// *refuse* inputs the spec accepts, and behaves arbitrarily on inputs the
// spec refuses after σ — only produced outputs on spec-accepted inputs are
// constrained. State labels play no role (contrast Refines).
//
// The check mirrors Refines: a subset construction over the specification
// tracks, for every implementation state reachable by a suspension trace,
// the set of specification states reachable by the same trace. On failure
// the offending suspension trace (ending in the escaping interaction) is
// returned.
func IocoRefines(impl, spec *Automaton) (bool, []Interaction, error) {
	if impl.NumStates() == 0 || spec.NumStates() == 0 {
		return false, nil, fmt.Errorf("automata: ioco over empty automaton")
	}
	si, _ := SaturateQuiescence(impl, impl.name)
	ss, _ := SaturateQuiescence(spec, spec.name)

	type item struct {
		s      StateID
		states []StateID
		trace  []Interaction
	}
	// visited holds the key of every explored pair (s, U): s, then U.
	visited := make(map[string]struct{})
	var key []byte
	queue := make([]item, 0, len(si.Initial()))
	specInit := normalizeStates(ss.Initial())
	for _, q := range si.Initial() {
		queue = append(queue, item{s: q, states: specInit})
	}

	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		key = appendStateKey(appendStateKey(key[:0], cur.s), cur.states...)
		if _, ok := visited[string(key)]; ok {
			continue
		}
		visited[string(key)] = struct{}{}

		// Per input accepted by the spec set: the allowed out-set.
		allowed := make(map[string]map[string]struct{})
		for _, sp := range cur.states {
			for _, t := range ss.TransitionsFrom(sp) {
				ik := t.Label.In.Key()
				set, ok := allowed[ik]
				if !ok {
					set = make(map[string]struct{})
					allowed[ik] = set
				}
				set[t.Label.Out.Key()] = struct{}{}
			}
		}

		for _, t := range si.TransitionsFrom(cur.s) {
			outs, inAccepted := allowed[t.Label.In.Key()]
			if !inAccepted {
				// The spec never accepts this input after the trace: the
				// suspension trace leaves Straces(spec) and ioco imposes
				// nothing on the branch.
				continue
			}
			trace := append(append([]Interaction(nil), cur.trace...), t.Label)
			if _, ok := outs[t.Label.Out.Key()]; !ok {
				return false, trace, nil // out-set escape
			}
			var next []StateID
			for _, sp := range cur.states {
				next = append(next, ss.Successors(sp, t.Label)...)
			}
			queue = append(queue, item{s: t.To, states: normalizeStates(next), trace: trace})
		}
	}
	return true, nil, nil
}

// AllowsObservation reports whether observing the interaction at the named
// state is consistent with the learned fragment: true unless the fragment
// explicitly blocks the interaction there. Unknown states and unknown
// interactions are allowed — they are merge candidates, not escapes. The
// replay layer uses this to classify divergences in nondeterministic mode.
func (m *Incomplete) AllowsObservation(state string, x Interaction) bool {
	id := m.auto.State(state)
	if id == NoState {
		return true
	}
	return !m.IsBlocked(id, x)
}
