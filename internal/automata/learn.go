package automata

import (
	"fmt"
	"slices"
)

// This file implements the learn operations of Definitions 11 and 12 and
// observation conformance per Definition 10.
//
// Learning consumes *observed* runs: sequences of interactions together
// with the implementation's state names as reported by monitoring during
// deterministic replay (Section 5). Because observed states are identified
// by name, learning can merge new observations into the already-learned
// state space.

// ObservedStep is one monitored interaction with the state reached after
// it.
type ObservedStep struct {
	Label Interaction
	To    string // state name reached after the interaction
}

// ObservedRun is a monitored execution of the implementation: the initial
// state, the regular steps taken, and — if the run ended with the
// implementation refusing an interaction — the blocked interaction.
type ObservedRun struct {
	Initial string
	Steps   []ObservedStep
	Blocked *Interaction // non-nil iff the run ended blocked (deadlock run)
}

// States returns all state names visited by the run in order, starting
// with the initial state.
func (r ObservedRun) States() []string {
	names := make([]string, 0, len(r.Steps)+1)
	names = append(names, r.Initial)
	for _, s := range r.Steps {
		names = append(names, s.To)
	}
	return names
}

// Learn merges an observed run into the incomplete automaton, implementing
// learn(M, π) of Definition 11 for the regular part and Definition 12 for
// a blocked final interaction:
//
//   - every state name not yet in S is added (labels per the supplied
//     labeler, which may be nil);
//   - every step (s, A, B, s') not yet in T is added;
//   - if the run's first state is unknown it becomes initial;
//   - a blocked final interaction is added to T̄.
//
// A step whose (state, interaction) already leads elsewhere conflicts with
// the earlier observation and fails, unless the model is nondeterministic
// (NewNondetIncomplete): there the new successor is recorded as an
// additional branch (the ioco merge of DESIGN.md §13). Observing an
// interaction recorded as blocked is an error either way: T̄ entries are
// refutations, and an observation contradicting one means the refutation
// (or the fairness assumption it rested on) was wrong.
//
// Learn reports the states, transitions, and blocked entries that were new,
// so callers can detect progress (the termination argument of Theorem 2 is
// that the delta is non-empty whenever a counterexample is not confirmed).
func (m *Incomplete) Learn(run ObservedRun, labeler func(state string) []Proposition) (LearnDelta, error) {
	var delta LearnDelta
	a := m.auto

	ensure := func(name string) (StateID, error) {
		if id := a.State(name); id != NoState {
			return id, nil
		}
		var labels []Proposition
		if labeler != nil {
			labels = labeler(name)
		}
		id, err := a.AddState(name, labels...)
		if err != nil {
			return NoState, err
		}
		delta.NewStates = append(delta.NewStates, id)
		return id, nil
	}

	cur, err := ensure(run.Initial)
	if err != nil {
		return delta, err
	}
	if len(a.initial) == 0 {
		a.MarkInitial(cur)
	}

	for i, step := range run.Steps {
		next, err := ensure(step.To)
		if err != nil {
			return delta, err
		}
		succ := a.Successors(cur, step.Label)
		switch {
		case slices.Contains(succ, next) && (m.nondet || len(succ) == 1):
			// Already learned.
		case len(succ) > 0 && !m.nondet:
			return delta, fmt.Errorf("automata: learn step %d: %s at %q leads to %q, conflicting with earlier observation",
				i, step.Label, a.StateName(cur), step.To)
		case m.IsBlocked(cur, step.Label):
			return delta, fmt.Errorf("automata: learn step %d: %s observed at %q but recorded as blocked",
				i, step.Label, a.StateName(cur))
		default:
			if err := a.AddTransition(cur, step.Label, next); err != nil {
				return delta, err
			}
			delta.NewTransitions = append(delta.NewTransitions, Transition{From: cur, Label: step.Label, To: next})
		}
		cur = next
	}

	if run.Blocked != nil {
		if !m.IsBlocked(cur, *run.Blocked) {
			if err := m.Block(cur, *run.Blocked); err != nil {
				return delta, err
			}
			delta.NewBlocked = append(delta.NewBlocked, BlockedEntry{State: cur, Label: *run.Blocked})
		}
	}
	return delta, nil
}

// BlockedEntry is one (state, interaction) pair added by learning: an
// element of T̄ (the interaction the implementation refused at the state),
// or a label certified successor-complete there (Incomplete.SettleLabel).
type BlockedEntry struct {
	State StateID
	Label Interaction
}

// LearnDelta enumerates what learning added to the model, so that
// incremental consumers (IncrementalSystem) can patch derived structures
// instead of rebuilding them.
type LearnDelta struct {
	NewStates      []StateID
	NewTransitions []Transition
	NewBlocked     []BlockedEntry
	// NewSettled lists the labels newly certified successor-complete
	// (Incomplete.SettleLabel) — nondeterministic models only. A settle
	// adds no transition; it removes the label's chaos escapes from the
	// closure, which counts as learning progress.
	NewSettled []BlockedEntry
}

// Empty reports whether the learn step added nothing — i.e. the
// observation was already fully contained in the model.
func (d LearnDelta) Empty() bool {
	return len(d.NewStates) == 0 && len(d.NewTransitions) == 0 && len(d.NewBlocked) == 0 && len(d.NewSettled) == 0
}

// Merge accumulates another delta into d.
func (d *LearnDelta) Merge(o LearnDelta) {
	d.NewStates = append(d.NewStates, o.NewStates...)
	d.NewTransitions = append(d.NewTransitions, o.NewTransitions...)
	d.NewBlocked = append(d.NewBlocked, o.NewBlocked...)
	d.NewSettled = append(d.NewSettled, o.NewSettled...)
}

// ObservationConforming checks Definition 10 against a reference
// implementation automaton: every run of the incomplete automaton m must be
// a run of impl. States are identified by name (observed state names come
// from monitoring the implementation, so they live in impl's namespace).
//
// The check is structural and complete for deterministic impl: every state
// of m must exist in impl, every transition of m must exist in impl, every
// initial state of m must be initial in impl, and every blocked entry of m
// must be refused by impl.
func (m *Incomplete) ObservationConforming(impl *Automaton) error {
	a := m.auto
	toImpl := make([]StateID, a.NumStates())
	for id, st := range a.states {
		ref := impl.State(st.name)
		if ref == NoState {
			return fmt.Errorf("automata: learned state %q not present in implementation", st.name)
		}
		toImpl[id] = ref
	}
	for _, q := range a.initial {
		found := false
		for _, qr := range impl.Initial() {
			if qr == toImpl[q] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("automata: learned initial state %q not initial in implementation", a.StateName(q))
		}
	}
	for _, ts := range a.adj {
		for _, t := range ts {
			ok := false
			for _, u := range impl.TransitionsFrom(toImpl[t.From]) {
				if u.Label.Equal(t.Label) && u.To == toImpl[t.To] {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("automata: learned transition %s -%s-> %s not present in implementation",
					a.StateName(t.From), t.Label, a.StateName(t.To))
			}
		}
	}
	for s := range m.blocked {
		for _, x := range m.BlockedAt(StateID(s)) {
			if impl.enables(toImpl[s], x) {
				return fmt.Errorf("automata: learned refusal of %s at %q contradicts implementation",
					x, a.StateName(StateID(s)))
			}
		}
	}
	return nil
}
