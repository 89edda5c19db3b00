package automata

import (
	"strings"
	"testing"
)

// incTestContext builds a small two-state context that alternates sending
// "go" and receiving "done".
func incTestContext(t *testing.T) *Automaton {
	t.Helper()
	ctx := New("ctx", NewSignalSet("done"), NewSignalSet("go"))
	idle := ctx.MustAddState("idle")
	wait := ctx.MustAddState("wait")
	ctx.MarkInitial(idle)
	ctx.MustAddTransition(idle, Interaction{Out: NewSignalSet("go")}, wait)
	ctx.MustAddTransition(wait, Interaction{In: NewSignalSet("done")}, idle)
	ctx.MustAddTransition(wait, Interaction{}, wait)
	return ctx
}

func incTestModel(t *testing.T) *Incomplete {
	t.Helper()
	a := New("comp", NewSignalSet("go"), NewSignalSet("done"))
	s0 := a.MustAddState("s0")
	a.MarkInitial(s0)
	return NewIncomplete(a)
}

// applyRun learns a run into the model and applies the delta, asserting it
// was patched (not rebuilt) and that the patch invariant holds.
func applyRun(t *testing.T, ic *IncrementalSystem, m *Incomplete, run ObservedRun) {
	t.Helper()
	delta, err := m.Learn(run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Apply(delta); err != nil {
		t.Fatal(err)
	}
	if patched, reason := ic.LastDecision(); !patched || reason != "delta-patch" {
		t.Fatalf("growth-only delta: LastDecision() = %v, %q, want true, \"delta-patch\"", patched, reason)
	}
	if err := ic.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalSystemPatchesAcrossLearnSteps(t *testing.T) {
	ctx := incTestContext(t)
	model := incTestModel(t)
	universe := Universe(UniverseSingleton)
	ic, err := NewIncrementalSystem(ctx, model, universe)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Verify(); err != nil {
		t.Fatalf("initial build: %v", err)
	}

	// Learn a new state + transition, then a refusal, then both at once.
	applyRun(t, ic, model, ObservedRun{
		Initial: "s0",
		Steps: []ObservedStep{{
			Label: Interaction{In: NewSignalSet("go")}, To: "s1",
		}},
	})
	blocked := Interaction{In: NewSignalSet("go"), Out: NewSignalSet("done")}
	applyRun(t, ic, model, ObservedRun{
		Initial: "s0",
		Steps: []ObservedStep{{
			Label: Interaction{In: NewSignalSet("go")}, To: "s1",
		}},
		Blocked: &blocked,
	})
	applyRun(t, ic, model, ObservedRun{
		Initial: "s0",
		Steps: []ObservedStep{
			{Label: Interaction{In: NewSignalSet("go")}, To: "s1"},
			{Label: Interaction{Out: NewSignalSet("done")}, To: "s2"},
		},
	})

	if ic.ReachableStates() > ic.System().NumStates() {
		t.Fatal("reachable count exceeds total product states")
	}
}

func TestIncrementalSystemEmptyDeltaIsNoOp(t *testing.T) {
	ctx := incTestContext(t)
	model := incTestModel(t)
	ic, err := NewIncrementalSystem(ctx, model, Universe(UniverseSingleton))
	if err != nil {
		t.Fatal(err)
	}
	before := ic.System().NumTransitions()
	if err := ic.Apply(LearnDelta{}); err != nil {
		t.Fatal(err)
	}
	if ic.System().NumTransitions() != before {
		t.Fatal("empty delta changed the product")
	}
}

func TestIncrementalSystemRebuildFallbackOnForeignDelta(t *testing.T) {
	ctx := incTestContext(t)
	model := incTestModel(t)
	ic, err := NewIncrementalSystem(ctx, model, Universe(UniverseSingleton))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the model *without* telling the system, then hand it a delta
	// whose state IDs do not line up: Apply must detect the inconsistency
	// and rebuild rather than patch garbage.
	if _, err := model.Learn(ObservedRun{
		Initial: "s0",
		Steps:   []ObservedStep{{Label: Interaction{In: NewSignalSet("go")}, To: "sX"}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := ic.Apply(LearnDelta{NewStates: []StateID{7}}); err != nil {
		t.Fatal(err)
	}
	if patched, reason := ic.LastDecision(); patched {
		t.Fatalf("inconsistent delta was patched (%q) instead of rebuilt", reason)
	}
	if err := ic.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentReachableDetectsDivergence(t *testing.T) {
	build := func(extra bool) *Automaton {
		a := New("m", NewSignalSet("i"), NewSignalSet("o"))
		s0 := a.MustAddState("s0")
		s1 := a.MustAddState("s1")
		a.MarkInitial(s0)
		a.MustAddTransition(s0, Interaction{In: NewSignalSet("i")}, s1)
		if extra {
			a.MustAddTransition(s1, Interaction{Out: NewSignalSet("o")}, s0)
		}
		return a
	}
	if err := EquivalentReachable(build(false), build(false)); err != nil {
		t.Fatalf("identical automata reported different: %v", err)
	}
	err := EquivalentReachable(build(false), build(true))
	if err == nil || !strings.Contains(err.Error(), "outgoing transitions") {
		t.Fatalf("missing transition not detected: %v", err)
	}

	// Unreachable garbage on the got side is ignored.
	withGarbage := build(true)
	g := withGarbage.MustAddState("garbage")
	withGarbage.MustAddTransition(g, Interaction{In: NewSignalSet("i")}, g)
	if err := EquivalentReachable(withGarbage, build(true)); err != nil {
		t.Fatalf("unreachable garbage affected equivalence: %v", err)
	}

	// But extra reachable structure is an error.
	reordered := build(true)
	if err := EquivalentReachable(reordered, build(false)); err == nil {
		t.Fatal("extra reachable transition not detected")
	}
}
