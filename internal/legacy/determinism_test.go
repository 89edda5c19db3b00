package legacy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"muml/internal/automata"
	"muml/internal/experiments"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// TestDeterminismErrorsPinned pins the texts of the determinism check of
// WrapAutomaton: an input set taken with two outputs, and a label taken to
// two successors, each reported at the first violation in row order, and
// FunctionDeterministic false on both.
func TestDeterminismErrorsPinned(t *testing.T) {
	a, x, y := automata.NewSignalSet("a"), automata.NewSignalSet("x"), automata.NewSignalSet("y")
	machine := func(row ...automata.Transition) *automata.Automaton {
		m := automata.New("m", a, x.Union(y))
		m.MarkInitial(m.MustAddState("s0"))
		m.MustAddState("s1")
		for _, tr := range row {
			m.MustAddTransition(tr.From, tr.Label, tr.To)
		}
		return m
	}
	ax, ay := automata.Interaction{In: a, Out: x}, automata.Interaction{In: a, Out: y}
	for _, c := range []struct {
		name string
		row  []automata.Transition
		want string
	}{
		{"output race", []automata.Transition{{From: 0, Label: ax, To: 1}, {From: 0, Label: ay, To: 1}},
			`legacy: automaton "m" is not function-deterministic at "s0" for input {a}`},
		{"duplicate successor", []automata.Transition{{From: 0, Label: ax, To: 1}, {From: 0, Label: ax, To: 0}},
			`legacy: automaton "m" is nondeterministic at "s0" on {a}/{x}`},
		{"race after a duplicate", []automata.Transition{{From: 0, Label: ax, To: 1}, {From: 0, Label: ay, To: 1}, {From: 0, Label: ax, To: 0}},
			`legacy: automaton "m" is nondeterministic at "s0" on {a}/{x}`},
		{"duplicate after a race", []automata.Transition{{From: 0, Label: ay, To: 1}, {From: 0, Label: ax, To: 1}, {From: 0, Label: ax, To: 0}},
			`legacy: automaton "m" is not function-deterministic at "s0" for input {a}`},
	} {
		m := machine(c.row...)
		if _, err := legacy.WrapAutomaton(m); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.name, err, c.want)
		}
		if legacy.FunctionDeterministic(m) {
			t.Errorf("%s: FunctionDeterministic holds", c.name)
		}
	}
}

// TestWrapAutomatonAllocatesOnlyTheComponent checks that the determinism
// check builds nothing: wrapping allocates the component and no more, on
// generated ground truths of both distributions and on a 96-state
// scenario machine.
func TestWrapAutomatonAllocatesOnlyTheComponent(t *testing.T) {
	machines := map[string]*automata.Automaton{
		"scenario-96": experiments.GenerateScenario(rand.New(rand.NewSource(1)), 96, 4, 3).Legacy,
	}
	for name, cfg := range map[string]gen.Config{"default": gen.DefaultConfig(), "wide": gen.WideConfig()} {
		for _, seed := range []int64{1, 2, 3} {
			inst, err := gen.New(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			machines[fmt.Sprintf("%s-%d", name, seed)] = inst.Legacy
		}
	}
	for name, m := range machines {
		if !legacy.FunctionDeterministic(m) {
			t.Fatalf("%s: not function-deterministic", name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := legacy.WrapAutomaton(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s (%d states, %d transitions): WrapAutomaton allocates %.0f times, want 1",
				name, m.NumStates(), m.NumTransitions(), allocs)
		}
	}
}
