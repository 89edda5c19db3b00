package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/experiments"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// TestMemoHandoutsStayCopyOnWrite runs syntheses whose iteration-0 closure
// is a memo hit, so the delta-patched system starts from a handout that
// shares its rows with the cache's master, while another goroutine keeps
// taking handouts of the same key. Patching every learn delta of the run
// (each build checked by CheckIncremental) must leave the master as it was:
// its MarshalMemo bytes do not change, and a fresh handout is still the
// from-scratch closure of the initial model. Run it under -race: a write
// into a shared row races with the reading goroutine.
func TestMemoHandoutsStayCopyOnWrite(t *testing.T) {
	// Wide seed 1389 learns 184 refusals at the initial state in its second
	// iteration, which rewrites the open copy's shared chaos row.
	wide, err := gen.New(1389, gen.WideConfig())
	if err != nil {
		t.Fatal(err)
	}
	scenario := experiments.GenerateScenario(rand.New(rand.NewSource(1)), 48, 3, 3)
	for _, tc := range []struct {
		name     string
		context  *automata.Automaton
		comp     func() (legacy.Component, error)
		iface    legacy.Interface
		property ctl.Formula
	}{
		{"wide-1389", wide.Context, wide.Component, wide.Interface(), wide.Property},
		{"scenario-48", scenario.Context, func() (legacy.Component, error) {
			return legacy.MustWrapAutomaton(scenario.Legacy), nil
		}, scenario.Iface, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := tc.comp()
			if err != nil {
				t.Fatal(err)
			}
			memo := automata.NewMemoCache(nil)
			universe := memo.Universe(automata.Universe(automata.UniverseSingleton), tc.iface.Inputs, tc.iface.Outputs)
			// The initial model M_l^0 exactly as core.NewMulti builds it,
			// so its closure has the run's iteration-0 memo key.
			init := legacy.InitialStateName(comp)
			a := automata.New(tc.iface.Name, tc.iface.Inputs, tc.iface.Outputs)
			a.MarkInitial(a.MustAddState(init, core.QualifiedLabeler(tc.iface.Name)(init)...))
			model := automata.NewIncomplete(a)
			handout := func() (*automata.Automaton, []byte) {
				c, err := automata.ChaoticClosureCtx(context.Background(), model, universe, memo)
				if err != nil {
					t.Error(err)
					return nil, nil
				}
				b, err := automata.MarshalMemo(c)
				if err != nil {
					t.Error(err)
				}
				return c, b
			}
			handout() // the miss that stores the master
			_, before := handout()

			done := make(chan struct{})
			var wg sync.WaitGroup
			var taken int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, b := handout(); !bytes.Equal(b, before) {
						t.Error("a handout taken during the run differs from the master")
						return
					}
					taken++
				}
			}()
			synth, err := core.New(tc.context, comp, tc.iface,
				core.Options{Property: tc.property, Memo: memo, CheckIncremental: true})
			if err != nil {
				t.Fatal(err)
			}
			report, runErr := synth.Run()
			close(done)
			wg.Wait()
			if runErr != nil {
				t.Fatal(runErr)
			}
			if report.Stats.ProductPatches == 0 {
				t.Fatalf("%d iterations and no patch", len(report.Iterations))
			}
			if hits, misses, _ := memo.Stats(); hits < taken+2 || misses < 1 {
				t.Fatalf("%d hits and %d misses for %d concurrent handouts: the run's first closure was no memo hit", hits, misses, taken)
			}

			after, b := handout()
			if !bytes.Equal(b, before) {
				t.Fatal("patching the run changed the memo master")
			}
			if err := automata.EquivalentReachable(after, automata.ChaoticClosure(model, automata.Universe(automata.UniverseSingleton))); err != nil {
				t.Fatalf("handout after the run: %v", err)
			}
		})
	}
}
