package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// TestProductsNeverRepeatAnEdge checks the argument that lets the product
// constructions append joint transitions without a dedupe set: operand
// alphabets are disjoint per direction, so a joint label and target fix
// the operand transitions, and no operand holds a transition twice. Over
// the gen, wide, multi-component and scenario corpora, no state of any
// product the synthesis loop builds — the final system (patched in place
// for one component, ComposeAll for several), the composition with the
// final learned closures, and the true composition — may list the same
// (label, target) twice.
func TestProductsNeverRepeatAnEdge(t *testing.T) {
	universe := automata.Universe(automata.UniverseSingleton)
	closureOf := func(m *automata.Incomplete) *automata.Automaton {
		return automata.ChaoticClosure(m, universe)
	}
	synthesize := func(name string, context *automata.Automaton, comps []legacy.Component, ifaces []legacy.Interface, opts core.Options) *core.Report {
		t.Helper()
		synth, err := core.NewMulti(context, comps, ifaces, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := synth.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}
	check := func(name string, a *automata.Automaton, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a == nil {
			return
		}
		for s := automata.StateID(0); int(s) < a.NumStates(); s++ {
			seen := make(map[string]bool)
			for _, tr := range a.TransitionsFrom(s) {
				k := fmt.Sprintf("%s>%d", tr.Label.Key(), tr.To)
				if seen[k] {
					t.Fatalf("%s: state %q repeats %v -> %q", name, a.StateName(s), tr.Label, a.StateName(tr.To))
				}
				seen[k] = true
			}
		}
	}

	single := func(name string, context, truth *automata.Automaton, comp legacy.Component, iface legacy.Interface, opts core.Options) {
		r := synthesize(name, context, []legacy.Component{comp}, []legacy.Interface{iface}, opts)
		check(name+" final system", r.WitnessSystem, nil)
		final, err := automata.Compose("system", context, closureOf(r.Model))
		check(name+" final closure product", final, err)
		check(name+" truth", truth, nil)
	}
	for _, corpus := range []struct {
		name  string
		cfg   gen.Config
		seeds []int64
	}{
		{"gen", gen.DefaultConfig(), seedRange(1, 60)},
		{"wide", gen.WideConfig(), append(seedRange(1, 16), 348, 1317, 1389)},
	} {
		for _, seed := range corpus.seeds {
			inst, err := gen.New(seed, corpus.cfg)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := inst.Component()
			if err != nil {
				t.Fatal(err)
			}
			truth, err := inst.TrueComposition()
			if err != nil {
				t.Fatal(err)
			}
			single(fmt.Sprintf("%s seed %d", corpus.name, seed), inst.Context, truth, comp, inst.Interface(),
				core.Options{Property: inst.Property})
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		sc := GenerateScenario(rng, 48+8*i, 2+i%3, 3)
		if i%3 == 2 {
			sc = MutateScenario(rng, sc)
		}
		truth, err := automata.Compose("truth", sc.Context, sc.Legacy)
		if err != nil {
			t.Fatal(err)
		}
		single(fmt.Sprintf("scenario %d", i), sc.Context, truth, legacy.MustWrapAutomaton(sc.Legacy), sc.Iface, core.Options{})
	}

	for seed := int64(1); seed <= 20; seed++ {
		inst, err := gen.NewMulti(seed, gen.DefaultConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		comps, err := inst.Components()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("multi seed %d", seed)
		r := synthesize(name, inst.Context, comps, inst.Interfaces(), core.Options{Property: inst.Property})
		check(name+" final system", r.WitnessSystem, nil)
		parts := []*automata.Automaton{inst.Context}
		for _, m := range r.Models {
			parts = append(parts, closureOf(m))
		}
		final, err := automata.ComposeAll("system", parts...)
		check(name+" final closure product", final, err)
		truth, err := inst.TrueComposition()
		check(name+" truth", truth, err)
	}
}

// seedRange returns the seeds lo..hi.
func seedRange(lo, hi int64) []int64 {
	var out []int64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}
