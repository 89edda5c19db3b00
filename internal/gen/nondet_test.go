package gen

import (
	"fmt"
	"testing"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// dupMachine builds the canonical nondeterministic troublemaker: input a is
// duplicated under an identical label (a/x to s0 and s1) and raced on its
// output (a/y), input b is deterministic.
func dupMachine() *automata.Automaton {
	a := automata.New(LegacyName, automata.NewSignalSet("a", "b"), automata.NewSignalSet("x", "y"))
	s0 := a.MustAddState("s0")
	s1 := a.MustAddState("s1")
	a.MarkInitial(s0)
	in := func(s string) automata.SignalSet { return automata.NewSignalSet(automata.Signal(s)) }
	a.MustAddTransition(s0, automata.Interaction{In: in("a"), Out: in("x")}, s0) // index 0
	a.MustAddTransition(s0, automata.Interaction{In: in("a"), Out: in("x")}, s1) // index 1: duplicate label
	a.MustAddTransition(s0, automata.Interaction{In: in("a"), Out: in("y")}, s0) // index 2: output race
	a.MustAddTransition(s1, automata.Interaction{In: in("b"), Out: in("y")}, s0) // index 3: deterministic
	return a
}

// Satellite: surgery on machines with duplicated transitions must flip the
// ground-truth nondeterminism classification exactly when the last source
// of branching under some (state, input) disappears — and never create
// branching that was not there.
func TestNondetSurgeryGroundTruthFlips(t *testing.T) {
	base := dupMachine()
	if legacy.FunctionDeterministic(base) {
		t.Fatal("dupMachine must be function-nondeterministic")
	}
	cases := []struct {
		name       string
		op         func() *automata.Automaton
		wantNondet bool
	}{
		// Snapshot order is by source state, so indices follow construction.
		{"drop one duplicate keeps the race", func() *automata.Automaton { return DropTransition(base, 1) }, true},
		{"drop the race keeps the duplicate", func() *automata.Automaton { return DropTransition(base, 2) }, true},
		{"drop duplicate then race is deterministic", func() *automata.Automaton {
			return DropTransition(DropTransition(base, 1), 1) // race shifts to index 1 after the first drop
		}, false},
		{"drop signal x removes both duplicates", func() *automata.Automaton { return DropSignal(base, "x") }, false},
		{"drop signal y keeps the duplicate pair", func() *automata.Automaton { return DropSignal(base, "y") }, true},
		{"drop signal a removes all branching", func() *automata.Automaton { return DropSignal(base, "a") }, false},
		{"drop state s1 keeps same-state branching", func() *automata.Automaton { return DropState(base, 1) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.op()
			if b == nil {
				t.Fatal("surgery returned nil")
			}
			if got := !legacy.FunctionDeterministic(b); got != tc.wantNondet {
				t.Fatalf("nondet = %v, want %v\n%s", got, tc.wantNondet, b.Dot())
			}
			// Whatever the flip, the result must wrap as the matching
			// component kind.
			if tc.wantNondet {
				if _, err := legacy.WrapNondet(b); err != nil {
					t.Fatalf("WrapNondet: %v", err)
				}
			} else if _, err := legacy.WrapAutomaton(b); err != nil {
				t.Fatalf("WrapAutomaton: %v", err)
			}
		})
	}
}

// Seeded sweep: every single-transition and single-signal removal on a
// generated nondeterministic instance must keep the instance valid, must
// never create nondeterminism, and must keep the recomputed ground truth
// internally consistent (every truth transition exists in the surgered
// automaton). At least one removal across the sweep must flip an instance
// to deterministic.
func TestNondetSurgerySeededSweep(t *testing.T) {
	flips := 0
	checked := 0
	for seed := int64(1); seed <= 10; seed++ {
		inst, err := New(seed, NondetConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !inst.Nondet() {
			continue
		}
		variants := make(map[string]*Instance)
		for i := 0; i < inst.Legacy.NumTransitions(); i++ {
			v := inst.Clone()
			v.Legacy = DropTransition(inst.Legacy, i)
			variants[fmt.Sprintf("droptr-%d", i)] = v
		}
		for _, sig := range append(inst.Legacy.Inputs().Signals(), inst.Legacy.Outputs().Signals()...) {
			v := inst.Clone()
			v.Legacy = DropSignal(inst.Legacy, sig)
			v.Context = DropSignal(inst.Context, sig)
			variants[fmt.Sprintf("dropsig-%s", sig)] = v
		}
		for name, v := range variants {
			if v.Legacy == nil {
				continue
			}
			v.Property = nil // atoms may reference dropped structure
			if err := v.Validate(); err != nil {
				t.Fatalf("seed %d %s: surgered instance invalid: %v", seed, name, err)
			}
			checked++
			if v.Nondet() && !inst.Nondet() {
				t.Fatalf("seed %d %s: surgery created nondeterminism", seed, name)
			}
			if !v.Nondet() {
				flips++
			}
			truth, err := v.Truth()
			if err != nil {
				t.Fatalf("seed %d %s: truth: %v", seed, name, err)
			}
			for s := 0; s < truth.NumStates(); s++ {
				for _, tr := range truth.TransitionsFrom(automata.StateID(s)) {
					from := v.Legacy.State(truth.StateName(tr.From))
					to := v.Legacy.State(truth.StateName(tr.To))
					if from == automata.NoState || to == automata.NoState ||
						!containsState(v.Legacy.Successors(from, tr.Label), to) {
						t.Fatalf("seed %d %s: truth transition %v not in surgered automaton", seed, name, tr)
					}
				}
			}
			if _, err := v.TrueComposition(); err != nil {
				t.Fatalf("seed %d %s: true composition: %v", seed, name, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no nondet instances generated in sweep")
	}
	if flips == 0 {
		t.Fatal("no removal flipped an instance to deterministic")
	}
	t.Logf("checked %d surgered variants, %d deterministic flips", checked, flips)
}

// NondetConfig must actually produce nondeterministic ground truths, and
// the zero-value / default configs must never do so (the knobs default to
// zero and withDefaults leaves them there).
func TestNondetConfigClassification(t *testing.T) {
	nondet := 0
	for seed := int64(1); seed <= 30; seed++ {
		inst, err := New(seed, NondetConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if inst.Nondet() {
			nondet++
			if _, err := legacy.WrapAutomaton(inst.Legacy); err == nil {
				t.Fatalf("seed %d: nondet instance wraps as deterministic component", seed)
			}
		}
	}
	if nondet < 10 {
		t.Fatalf("only %d/30 nondet instances; distribution too tame", nondet)
	}
	for seed := int64(1); seed <= 30; seed++ {
		inst, err := New(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if inst.Nondet() {
			t.Fatalf("seed %d: default config produced a nondet instance", seed)
		}
	}
}
