package learning

import (
	"math/rand"
	"testing"

	"muml/internal/automata"
	"muml/internal/conformance"
	"muml/internal/core"
	"muml/internal/legacy"
	"muml/internal/railcab"
)

func learnWithPerfectOracle(t *testing.T, comp legacy.Component, iface legacy.Interface, maxTruthStates int) (*automata.Automaton, *automata.Automaton, Stats) {
	t.Helper()
	universe := automata.Universe(automata.UniverseSingleton)
	truth := core.ExploreComponent(comp, iface, universe, nil, maxTruthStates)
	model, stats, err := LearnComponent(comp, iface, universe, NewPerfectOracle(truth), 64)
	if err != nil {
		t.Fatal(err)
	}
	return model, truth, stats
}

func TestLStarLearnsCorrectShuttle(t *testing.T) {
	iface := railcab.RearInterface("rear")
	model, truth, stats := learnWithPerfectOracle(t, &railcab.CorrectShuttle{}, iface, 16)
	alphabet := conformance.InputAlphabet(truth, automata.Universe(automata.UniverseSingleton))
	eq, w, err := conformance.Equivalent(model, truth, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("learned model differs from truth on %v\nmodel:\n%s\ntruth:\n%s", w, model.Dot(), truth.Dot())
	}
	if model.NumStates() != truth.NumStates() {
		t.Fatalf("learned %d states, truth has %d", model.NumStates(), truth.NumStates())
	}
	if stats.MembershipQueries == 0 || stats.EquivalenceQueries == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	t.Logf("L* learned %d states with %d membership / %d equivalence queries",
		model.NumStates(), stats.MembershipQueries, stats.EquivalenceQueries)
}

func TestLStarLearnsAllShuttles(t *testing.T) {
	comps := map[string]legacy.Component{
		"correct":  &railcab.CorrectShuttle{},
		"eager":    &railcab.EagerShuttle{},
		"blocking": &railcab.BlockingShuttle{},
	}
	iface := railcab.RearInterface("rear")
	for name, comp := range comps {
		t.Run(name, func(t *testing.T) {
			model, truth, _ := learnWithPerfectOracle(t, comp, iface, 16)
			alphabet := conformance.InputAlphabet(truth, automata.Universe(automata.UniverseSingleton))
			eq, w, err := conformance.Equivalent(model, truth, alphabet)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("learned model differs on %v", w)
			}
		})
	}
}

func TestLStarWithWMethodOracle(t *testing.T) {
	iface := railcab.RearInterface("rear")
	comp := &railcab.CorrectShuttle{}
	universe := automata.Universe(automata.UniverseSingleton)
	var stats Stats
	oracle := NewComponentOracle(comp, &stats)
	wm := NewWMethodOracle(oracle, 6)
	learner := NewLearner(oracle, automata.CompileUniverse(universe, iface.Inputs, iface.Outputs).InputSets(), &stats)
	model, err := learner.Learn(wm, 64)
	if err != nil {
		t.Fatal(err)
	}
	truth := core.ExploreComponent(&railcab.CorrectShuttle{}, iface, universe, nil, 16)
	alphabet := conformance.InputAlphabet(truth, universe)
	eq, w, err := conformance.Equivalent(model, truth, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("W-method-learned model differs on %v", w)
	}
	if len(wm.SuiteCosts) == 0 {
		t.Fatal("no suite costs recorded")
	}
	t.Logf("W-method oracle: %d suites, last cost %+v; %d membership queries total",
		len(wm.SuiteCosts), wm.SuiteCosts[len(wm.SuiteCosts)-1], stats.MembershipQueries)
}

func TestLStarLearnsRandomMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := automata.Universe(automata.UniverseSingleton)
	for i := 0; i < 15; i++ {
		truth := randomMealy(rng, 2+rng.Intn(5))
		comp := legacy.MustWrapAutomaton(truth)
		iface := legacy.Interface{Name: "m", Inputs: truth.Inputs(), Outputs: truth.Outputs()}
		model, _, err := LearnComponent(comp, iface, universe, NewPerfectOracle(truth), 128)
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		alphabet := conformance.InputAlphabet(truth, universe)
		eq, w, err := conformance.Equivalent(model, truth, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("machine %d: differs on %v\ntruth:\n%s\nmodel:\n%s", i, w, truth.Dot(), model.Dot())
		}
	}
}

func TestComponentOracleStuckSemantics(t *testing.T) {
	var stats Stats
	oracle := NewComponentOracle(&railcab.CorrectShuttle{}, &stats)
	w := Word{
		automata.NewSignalSet(railcab.StartConvoy), // refused initially
		automata.EmptySet,
	}
	outs := oracle.Query(w)
	if outs[0] != Bottom || outs[1] != Bottom {
		t.Fatalf("outputs = %v", outs)
	}
	// Cache: repeated query costs nothing.
	before := stats.MembershipQueries
	oracle.Query(w)
	if stats.MembershipQueries != before {
		t.Fatal("cached query recounted")
	}
}

// randomMealy generates a random function-deterministic, input-complete
// automaton with distinguishable outputs.
func randomMealy(rng *rand.Rand, states int) *automata.Automaton {
	inputs := []automata.Signal{"a", "b"}
	outputs := []automata.Signal{"x", "y"}
	m := automata.New("truth", automata.NewSignalSet(inputs...), automata.NewSignalSet(outputs...))
	for i := 0; i < states; i++ {
		m.MustAddState("s" + string(rune('0'+i)))
	}
	m.MarkInitial(0)
	for s := 0; s < states; s++ {
		for _, in := range inputs {
			if rng.Intn(5) == 0 {
				continue // partial: refuse this input
			}
			var out []automata.Signal
			if rng.Intn(2) == 0 {
				out = []automata.Signal{outputs[rng.Intn(len(outputs))]}
			}
			label := automata.Interact([]automata.Signal{in}, out)
			m.MustAddTransition(automata.StateID(s), label, automata.StateID(rng.Intn(states)))
		}
	}
	return m
}
