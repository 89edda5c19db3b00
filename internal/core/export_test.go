package core

import (
	"muml/internal/automata"
	"muml/internal/legacy"
	"muml/internal/replay"
)

// PredictTest runs the test predictor of component comp on an input plan,
// for the external tests.
func (s *Synthesizer) PredictTest(comp int, inputs []automata.SignalSet) (replay.Recording, automata.ObservedRun, bool) {
	return s.comps[comp].predict(inputs)
}

// LearnIntoClone learns an observed run the way a test's observation is
// learned, but into a clone of component comp's model, and returns what
// the learning added.
func (s *Synthesizer) LearnIntoClone(comp int, run automata.ObservedRun) (automata.LearnDelta, error) {
	c := *s.comps[comp]
	c.model = c.model.Clone()
	var it Iteration
	err := s.learnObservation(&c, run, &it)
	return it.Delta, err
}

// TwoServices prepares the two-service coordinator of multi_test.go, its
// second service mute when mute is set, for the external tests.
func TwoServices(mute bool, opts Options) (*Synthesizer, error) {
	return NewMulti(multiContext(), []legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2", mute: mute}},
		[]legacy.Interface{pongIface("1"), pongIface("2")}, opts)
}

// Step runs iteration index of the loop and appends it to report, as Run
// does, for the external tests that inspect the system between
// iterations.
func (s *Synthesizer) Step(index int, report *Report) (*Iteration, bool, error) {
	it, done, err := s.step(index, report)
	if err == nil {
		report.Iterations = append(report.Iterations, *it)
	}
	return it, done, err
}

// Incremental returns the patched system the loop carries (nil before the
// first iteration).
func (s *Synthesizer) Incremental() *automata.IncrementalSystem { return s.inc }
