package legacy

import (
	"fmt"
	"sort"

	"muml/internal/automata"
)

// This file relaxes the determinism requirement of Section 4.3: real legacy
// black boxes duplicate transitions, race outputs, and drop messages. A
// NondetComponent wraps such an automaton as a Component whose branch
// choices are *fair*: at each occurrence of a (state, input) pair within a
// run, the enabled transitions are cycled round-robin in a deterministic
// order, and the cycle counters survive Reset. The cursor is per
// occurrence — the n-th visit of a pair inside one run cycles independently
// of the m-th — because a single shared cursor can phase-lock: when every
// run visits a pair a multiple-of-degree number of times, the branch taken
// at a fixed position of a replayed prefix never changes, starving whole
// regions of the state space no matter how many replays run. Per-occurrence
// cycling guarantees that across the runs reaching any fixed position,
// every branch appears within the pair's branching degree — the
// complete-testing assumption ioco-based synthesis needs to observe the
// whole out-set with boundedly many repetitions (DESIGN.md §13).

// FunctionDeterministic reports whether the automaton satisfies the
// determinism requirement WrapAutomaton enforces: per (state, input set) at
// most one full interaction label, with exactly one successor.
func FunctionDeterministic(a *automata.Automaton) bool { return checkDeterministic(a) == nil }

// NondetComponent wraps an arbitrary automaton — duplicate successors,
// output races, lossy branches — as a Component with fair round-robin
// branch resolution. Refusals stay deterministic: an input with no enabled
// transition at the current state is always refused, matching the
// per-(state, input) refusal model the probe layer relies on.
type NondetComponent struct {
	auto *automata.Automaton
	cur  automata.StateID
	init automata.StateID
	// turn holds the branch cursors of each (state, input-key), indexed by
	// the occurrence number of that pair within the current run; occ counts
	// the occurrences seen so far this run and is cleared by Reset. The
	// cursors deliberately survive Reset: at any fixed occurrence the
	// enabled branches cycle round-robin over the runs that reach it, so no
	// run length can phase-lock the choice made at a given step of a
	// replayed prefix.
	turn map[nondetKey][]int
	occ  map[nondetKey]int
}

type nondetKey struct {
	state automata.StateID
	inKey string
}

var (
	_ Component    = (*NondetComponent)(nil)
	_ Introspector = (*NondetComponent)(nil)
)

// WrapNondet wraps the automaton. Unlike WrapAutomaton it accepts any
// branching structure; only the single-initial-state requirement remains.
func WrapNondet(a *automata.Automaton) (*NondetComponent, error) {
	init := a.InitialState()
	if init == automata.NoState {
		return nil, fmt.Errorf("legacy: automaton %q must have exactly one initial state", a.Name())
	}
	return &NondetComponent{
		auto: a, cur: init, init: init,
		turn: make(map[nondetKey][]int),
		occ:  make(map[nondetKey]int),
	}, nil
}

// MustWrapNondet is WrapNondet but panics on error.
func MustWrapNondet(a *automata.Automaton) *NondetComponent {
	c, err := WrapNondet(a)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset implements Component. The control state and the per-run occurrence
// counts reset; the fairness cursors persist across runs by design.
func (c *NondetComponent) Reset() {
	c.cur = c.init
	clear(c.occ)
}

// Step implements Component: collect the transitions enabled under the
// input, order them deterministically (by output key, then successor
// name), and take the one the fairness counter selects.
func (c *NondetComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	var enabled []automata.Transition
	for _, t := range c.auto.TransitionsFrom(c.cur) {
		if t.Label.In.Equal(in) {
			enabled = append(enabled, t)
		}
	}
	if len(enabled) == 0 {
		return automata.EmptySet, false
	}
	sort.Slice(enabled, func(i, j int) bool {
		ki, kj := enabled[i].Label.Out.Key(), enabled[j].Label.Out.Key()
		if ki != kj {
			return ki < kj
		}
		return c.auto.StateName(enabled[i].To) < c.auto.StateName(enabled[j].To)
	})
	k := nondetKey{state: c.cur, inKey: in.Key()}
	d := c.occ[k]
	c.occ[k]++
	for len(c.turn[k]) <= d {
		c.turn[k] = append(c.turn[k], 0)
	}
	pick := enabled[c.turn[k][d]%len(enabled)]
	c.turn[k][d]++
	c.cur = pick.To
	return pick.Label.Out, true
}

// StateName implements Introspector.
func (c *NondetComponent) StateName() string { return c.auto.StateName(c.cur) }

// Automaton returns the wrapped automaton, for ground-truth oracles.
func (c *NondetComponent) Automaton() *automata.Automaton { return c.auto }

// InterfaceOf derives the structural interface of the wrapped automaton.
func (c *NondetComponent) InterfaceOf() Interface {
	return Interface{
		Name:    c.auto.Name(),
		Inputs:  c.auto.Inputs(),
		Outputs: c.auto.Outputs(),
	}
}
