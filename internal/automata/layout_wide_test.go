package automata_test

import (
	"context"
	"runtime"
	"testing"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// wideInitialBuild returns the first-iteration build of a wide instance
// (gen.WideConfig, 1,271 singleton labels): NewIncrementalSystemWith over
// its context and M_l⁰, with the universe from the memo cache.
func wideInitialBuild(t *testing.T, memo *automata.MemoCache) func() *automata.IncrementalSystem {
	t.Helper()
	inst, err := gen.New(1<<20, gen.WideConfig())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := inst.Component()
	if err != nil {
		t.Fatal(err)
	}
	iface := inst.Interface()
	a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
	init := legacy.InitialStateName(comp)
	a.MarkInitial(a.MustAddState(init, core.QualifiedLabeler(iface.Name)(init)...))
	model := automata.NewIncomplete(a)
	universe := memo.Universe(automata.Universe(automata.UniverseSingleton), iface.Inputs, iface.Outputs)
	return func() *automata.IncrementalSystem {
		ic, err := automata.NewIncrementalSystemWith(context.Background(), inst.Context, model, universe, memo)
		if err != nil {
			t.Fatal(err)
		}
		return ic
	}
}

// TestWideBuildAllocatesPerState checks that a wide instance's initial
// build over a warm universe and memo pays for its states, not for the
// universe's labels: the universe's layout holds the chaos rows, so no
// per-label copy is made. A build that copied the labels' keys (40 KB)
// or materialized s_∀'s row (100 KB) would exceed the bound.
func TestWideBuildAllocatesPerState(t *testing.T) {
	build := wideInitialBuild(t, automata.NewMemoCache(nil))
	if err := build().Verify(); err != nil { // warms the memo and the layout
		t.Fatal(err)
	}
	const runs, bound = 20, 48 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if perBuild := (after.TotalAlloc - before.TotalAlloc) / runs; perBuild > bound {
		t.Fatalf("a warm wide initial build allocates %d B, want at most %d", perBuild, bound)
	}
}

// TestOneLayoutPerWideInterface runs 64 wide instances, one interface and
// one mirrored context alphabet, through batch.Verify with one memo cache:
// the shared universe must end with exactly one label layout.
func TestOneLayoutPerWideInterface(t *testing.T) {
	memo := automata.NewMemoCache(nil)
	sum, err := batch.Verify(batch.GenItems(1, 64, gen.WideConfig()), batch.Options{Workers: 2, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errored != 0 {
		t.Fatalf("%d of 64 wide instances errored", sum.Errored)
	}
	inst, err := gen.New(1, gen.WideConfig())
	if err != nil {
		t.Fatal(err)
	}
	iface := inst.Interface()
	universe := memo.Universe(automata.Universe(automata.UniverseSingleton), iface.Inputs, iface.Outputs)
	if got := universe.NumLayouts(); got != 1 {
		t.Fatalf("64 wide instances left %d layouts on their universe, want 1", got)
	}
}
