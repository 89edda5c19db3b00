package core_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
)

// stepScenario runs pinned scenario machine seed one iteration at a time
// and calls visit after each; it stops at the verdict or when visit
// returns false.
func stepScenario(t *testing.T, seed int64, visit func(s *core.Synthesizer, it *core.Iteration) bool) {
	t.Helper()
	sc := pinnedScenario(seed)
	s, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report := &core.Report{}
	for i := 0; ; i++ {
		it, done, err := s.Step(i, report)
		if err != nil {
			t.Fatalf("seed %d iteration %d: %v", seed, i, err)
		}
		if !visit(s, it) || done {
			return
		}
	}
}

// TestCheckAllocatesNoPerStateSearch repeats the check phase's
// Rebind+CheckManyCtx on one patched product that violates deadlock
// freedom. Once the checker's buffers have grown, a check must allocate
// less than one Transition per product state: the counterexample search
// keeps its visited, parent and queue buffers on the checker, and Sat
// reuses its sets across Rebind.
func TestCheckAllocatesNoPerStateSearch(t *testing.T) {
	var sys *automata.Automaton
	stepScenario(t, 6, func(s *core.Synthesizer, it *core.Iteration) bool {
		if it.Patched && !it.DeadlockFree && s.Incremental().System().NumStates() >= 64 {
			sys = s.Incremental().System()
			return false
		}
		return true
	})
	if sys == nil {
		t.Fatal("no patched iteration of 64+ states with a deadlock counterexample")
	}
	checker := ctl.NewChecker(sys)
	check := func() {
		checker.Rebind(sys)
		res, err := checker.CheckManyCtx(context.Background(), ctl.NoDeadlock(), 1)
		if err != nil || res[0].Holds || res[0].Counterexample == nil {
			t.Fatalf("check = %+v, %v; want a deadlock counterexample", res, err)
		}
	}
	for range 3 {
		check()
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		check()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	limit := uint64(unsafe.Sizeof(automata.Transition{})) * uint64(sys.NumStates())
	t.Logf("a check of %d states allocates %d bytes (limit %d)", sys.NumStates(), perCall, limit)
	if perCall >= limit {
		t.Fatalf("a check of %d states allocates %d bytes, want under %d (one Transition per state)",
			sys.NumStates(), perCall, limit)
	}
}

// TestRecycledCSRMatchesFreshBuild checks, after every iteration of two
// scenario trajectories, that the product's CSR snapshot — built by the
// check phase into the arrays the iteration's Apply released — equals a
// snapshot built from nothing.
func TestRecycledCSRMatchesFreshBuild(t *testing.T) {
	for _, seed := range []int64{2, 6} {
		patched := 0
		stepScenario(t, seed, func(s *core.Synthesizer, it *core.Iteration) bool {
			if it.Patched {
				patched++
			}
			sys := s.Incremental().System()
			got, want := sys.CSR(), sys.Clone("fresh").CSR()
			if got.NumStates() != want.NumStates() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("seed %d iteration %d: CSR has %d states and %d edges, fresh build %d and %d",
					seed, it.Index, got.NumStates(), got.NumEdges(), want.NumStates(), want.NumEdges())
			}
			for q := range want.NumStates() {
				if !slices.Equal(got.Succ(q), want.Succ(q)) || !slices.Equal(got.Pred(q), want.Pred(q)) {
					t.Fatalf("seed %d iteration %d: state %d rows differ from a fresh build", seed, it.Index, q)
				}
			}
			return true
		})
		if patched < 5 {
			t.Fatalf("seed %d: %d patched iterations, want a trajectory of patches", seed, patched)
		}
	}
}

// TestClosureReadLagsLearning reads the patched closure only after every
// second iteration, when the model has learned past the last Apply and
// two patches' rows are pending. The closure must be that of the model as
// it was at the Apply: its rows come from the masked rows the patch
// computed, not from the live model.
func TestClosureReadLagsLearning(t *testing.T) {
	universe := automata.Universe(automata.UniverseSingleton)
	var applied *automata.Incomplete // the model the iteration's Apply patched in
	lagged := 0
	stepScenario(t, 6, func(s *core.Synthesizer, it *core.Iteration) bool {
		if it.Index%2 == 1 && !it.Delta.Empty() {
			lagged++
			got, want := s.Incremental().Closure(), automata.ChaoticClosure(applied, universe)
			if got.NumStates() != want.NumStates() {
				t.Fatalf("iteration %d: closure has %d states, want %d", it.Index, got.NumStates(), want.NumStates())
			}
			if err := automata.EquivalentReachable(got, want); err != nil {
				t.Fatalf("iteration %d: closure is not the applied model's: %v", it.Index, err)
			}
		}
		// The next iteration applies what this one learned.
		applied = s.Model().Clone()
		return true
	})
	if lagged < 3 {
		t.Fatalf("closure read after learning in %d iterations, want several", lagged)
	}
}
