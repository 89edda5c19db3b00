package automata_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/experiments"
	"muml/internal/gen"
)

// definition3 is the parallel composition of Definition 3, written
// literally over SignalSets: a breadth-first exploration of the parts'
// state tuples from the tuples of their initial states (the first part's
// varying slowest). The joint steps of a tuple choose one transition
// (Aᵢ, Bᵢ) per part, depth-first in each part's transition order, and are
// those with
//
//	Aᵢ ∩ ⋃_{j≠i} Oⱼ = (⋃_{j≠i} Bⱼ) ∩ Iᵢ  for every part i,  and  ⋃ⱼ Bⱼ ⊆ ⋃ⱼ Aⱼ.
//
// A state is named by its parts' state names joined by "|" (with the first
// free "#n" suffix on a collision) and labelled by the union of their
// labels. definition3 returns the product and the parts (leaf state
// names) of each of its states.
func definition3(name string, parts ...*automata.Automaton) (*automata.Automaton, [][]string) {
	in, out := automata.EmptySet, automata.EmptySet
	for _, p := range parts {
		in, out = in.Union(p.Inputs()), out.Union(p.Outputs())
	}
	sys := automata.New(name, in, out)
	var tuples [][]automata.StateID
	var stateParts [][]string
	ids := make(map[string]automata.StateID)
	state := func(tuple []automata.StateID) automata.StateID {
		key := fmt.Sprint(tuple)
		if id, ok := ids[key]; ok {
			return id
		}
		var names, leaves []string
		var labels []automata.Proposition
		for i, p := range parts {
			names = append(names, p.StateName(tuple[i]))
			labels = append(labels, p.Labels(tuple[i])...)
			leaves = append(leaves, p.StateParts(tuple[i])...)
		}
		base := strings.Join(names, "|")
		stateName := base
		for n := 2; sys.State(stateName) != automata.NoState; n++ {
			stateName = fmt.Sprintf("%s#%d", base, n)
		}
		id := sys.MustAddState(stateName, labels...)
		ids[key] = id
		tuples = append(tuples, slices.Clone(tuple))
		stateParts = append(stateParts, leaves)
		return id
	}

	var initial func(tuple []automata.StateID)
	initial = func(tuple []automata.StateID) {
		if len(tuple) == len(parts) {
			sys.MarkInitial(state(tuple))
			return
		}
		for _, q := range parts[len(tuple)].Initial() {
			initial(append(slices.Clip(tuple), q))
		}
	}
	initial(nil)

	for s := automata.StateID(0); int(s) < sys.NumStates(); s++ {
		var step func(chosen []automata.Transition)
		step = func(chosen []automata.Transition) {
			if len(chosen) < len(parts) {
				for _, t := range parts[len(chosen)].TransitionsFrom(tuples[s][len(chosen)]) {
					step(append(slices.Clip(chosen), t))
				}
				return
			}
			consumed, produced := automata.EmptySet, automata.EmptySet
			for i, t := range chosen {
				othersOut, othersProduce := automata.EmptySet, automata.EmptySet
				for j, u := range chosen {
					if j != i {
						othersOut = othersOut.Union(parts[j].Outputs())
						othersProduce = othersProduce.Union(u.Label.Out)
					}
				}
				if !t.Label.In.Intersect(othersOut).Equal(othersProduce.Intersect(parts[i].Inputs())) {
					return
				}
				consumed, produced = consumed.Union(t.Label.In), produced.Union(t.Label.Out)
			}
			if !produced.SubsetOf(consumed) {
				return
			}
			next := make([]automata.StateID, len(chosen))
			for i, t := range chosen {
				next[i] = t.To
			}
			sys.MustAddTransition(s, automata.Interaction{In: consumed, Out: produced}, state(next))
		}
		step(nil)
	}
	return sys, stateParts
}

// TestComposeAllMatchesDefinition3 requires ComposeAll (and Compose for two
// parts) to build exactly the product definition3 writes down: the same
// EncodeJSON bytes (names, labels, transitions in order, initial states)
// and the same parts in every state. The inputs are random I/O automata
// that read each other's outputs and write signals no part reads, gen
// default and wide contexts with their ground truths, scenario contexts
// with their legacy machines, contexts with the chaotic closure of the
// learned model, and the context and ground truths of two- and
// three-component systems. Each part's inputs and outputs are disjoint,
// the case in which Definition 3's conditions are ComposeAll's.
func TestComposeAllMatchesDefinition3(t *testing.T) {
	check := func(label string, parts ...*automata.Automaton) {
		t.Helper()
		for _, p := range parts {
			if !p.Inputs().Disjoint(p.Outputs()) {
				t.Fatalf("%s: part %q reads and writes %v", label, p.Name(), p.Inputs().Intersect(p.Outputs()))
			}
		}
		want, wantParts := definition3("sys", parts...)
		wantJSON, err := automata.EncodeJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		all, err := automata.ComposeAll("sys", parts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		products := []*automata.Automaton{all}
		if len(parts) == 2 {
			binary, err := automata.Compose("sys", parts[0], parts[1])
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			products = append(products, binary)
		}
		for _, got := range products {
			gotJSON, err := automata.EncodeJSON(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s: the product has %d states and %d transitions, Definition 3 %d and %d:\n%s\nwant:\n%s",
					label, got.NumStates(), got.NumTransitions(), want.NumStates(), want.NumTransitions(), got.Dot(), want.Dot())
			}
			for s, leaves := range wantParts {
				if gp := got.StateParts(automata.StateID(s)); !slices.Equal(gp, leaves) {
					t.Fatalf("%s: state %d has parts %v, want %v", label, s, gp, leaves)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		check(fmt.Sprintf("random pair %d", i),
			randomIOAutomaton(rng, "left", 3, []automata.Signal{"a", "y"}, []automata.Signal{"x", "z"}),
			randomIOAutomaton(rng, "right", 3, []automata.Signal{"b", "x"}, []automata.Signal{"y", "w"}))
	}
	single := automata.Universe(automata.UniverseSingleton)
	for _, set := range []struct {
		name  string
		cfg   gen.Config
		seeds int64
	}{{"default", gen.DefaultConfig(), 64}, {"wide", gen.WideConfig(), 12}} {
		for seed := int64(1); seed <= set.seeds; seed++ {
			inst, err := gen.New(seed, set.cfg)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := inst.Truth()
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s seed %d truth", set.name, seed), inst.Context, truth)
			comp, err := inst.Component()
			if err != nil {
				t.Fatal(err)
			}
			synth, err := core.New(inst.Context, comp, inst.Interface(), core.Options{Property: inst.Property})
			if err != nil {
				t.Fatal(err)
			}
			r, err := synth.Run()
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s seed %d closure", set.name, seed), inst.Context, automata.ChaoticClosure(r.Model, single))
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := experiments.GenerateScenario(rng, 48+80*int(seed%17)/16, 2+int(seed/3)%3, 3)
		if seed%3 == 2 {
			sc = experiments.MutateScenario(rng, sc)
		}
		check(fmt.Sprintf("scenario %d", seed), sc.Context, sc.Legacy)
	}
	for _, k := range []int{2, 3} {
		for seed := int64(1); seed <= 24; seed++ {
			inst, err := gen.NewMulti(seed, gen.DefaultConfig(), k)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%d components seed %d", k, seed), append([]*automata.Automaton{inst.Context}, inst.Legacies...)...)
		}
	}
}

// randomIOAutomaton is an automaton over the given inputs and outputs
// whose every singleton-universe label leaves each state with probability
// 1/3.
func randomIOAutomaton(rng *rand.Rand, name string, states int, ins, outs []automata.Signal) *automata.Automaton {
	a := automata.New(name, automata.NewSignalSet(ins...), automata.NewSignalSet(outs...))
	for i := 0; i < states; i++ {
		a.MustAddState(fmt.Sprintf("%s%d", name, i))
	}
	a.MarkInitial(0)
	for s := 0; s < states; s++ {
		for _, x := range automata.Universe(automata.UniverseSingleton).Enumerate(a.Inputs(), a.Outputs()) {
			if rng.Intn(3) == 0 {
				a.MustAddTransition(automata.StateID(s), x, automata.StateID(rng.Intn(states)))
			}
		}
	}
	return a
}
