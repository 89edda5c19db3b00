package learning

import (
	"muml/internal/automata"
	"muml/internal/conformance"
	"muml/internal/legacy"
)

// PerfectOracle is an equivalence oracle with white-box access to the true
// behavior automaton of the system under learning. It answers equivalence
// queries exactly via a product search — the idealized oracle of Angluin's
// setting, unavailable in practice but useful as the lower bound in the
// baseline comparison.
type PerfectOracle struct {
	truth *automata.Automaton
}

var _ EquivalenceOracle = (*PerfectOracle)(nil)

// NewPerfectOracle builds the oracle from the ground-truth automaton.
func NewPerfectOracle(truth *automata.Automaton) *PerfectOracle {
	return &PerfectOracle{truth: truth}
}

// Counterexample implements EquivalenceOracle.
func (o *PerfectOracle) Counterexample(h *automata.Automaton, alphabet []automata.SignalSet) (Word, bool, error) {
	equal, w, err := conformance.Equivalent(h, o.truth, alphabet)
	if err != nil {
		return nil, false, err
	}
	if equal {
		return nil, false, nil
	}
	return w, true, nil
}

// WMethodOracle approximates the equivalence oracle by conformance
// testing: it generates the W-method suite for the hypothesis under an
// assumed bound on the implementation's state count and executes it
// against the component. This is the practical realization discussed in
// Section 6 (Vasilevskii/Chow); its cost is what the paper's approach
// avoids.
type WMethodOracle struct {
	oracle    OutputOracle
	maxStates int
	// SuiteCosts records the cost of every generated suite, for the E9
	// experiment.
	SuiteCosts []conformance.SuiteCost
}

var _ EquivalenceOracle = (*WMethodOracle)(nil)

// NewWMethodOracle builds the oracle; maxStates is the assumed upper bound
// on the implementation's state count.
func NewWMethodOracle(oracle OutputOracle, maxStates int) *WMethodOracle {
	return &WMethodOracle{oracle: oracle, maxStates: maxStates}
}

// Counterexample implements EquivalenceOracle.
func (o *WMethodOracle) Counterexample(h *automata.Automaton, alphabet []automata.SignalSet) (Word, bool, error) {
	suite, err := conformance.Suite(h, alphabet, o.maxStates)
	if err != nil {
		return nil, false, err
	}
	o.SuiteCosts = append(o.SuiteCosts, conformance.Cost(suite))
	for _, w := range suite {
		expected := conformance.Outputs(h, w)
		actual := o.oracle.Query(w)
		for i := range expected {
			if expected[i] != actual[i] {
				return w[:i+1], true, nil
			}
		}
	}
	return nil, false, nil
}

// LearnComponent is a convenience wrapper running the complete L* pipeline
// over a legacy component with the given equivalence strategy.
func LearnComponent(
	comp legacy.Component,
	iface legacy.Interface,
	universe automata.InteractionUniverse,
	equiv EquivalenceOracle,
	maxRounds int,
) (*automata.Automaton, Stats, error) {
	var stats Stats
	oracle := NewComponentOracle(comp, &stats)
	alphabet := automata.InputSets(universe, iface.Inputs, iface.Outputs)
	learner := NewLearner(oracle, alphabet, &stats)
	model, err := learner.Learn(equiv, maxRounds)
	return model, stats, err
}
