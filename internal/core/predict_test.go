package core_test

import (
	"fmt"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
	"muml/internal/replay"
)

// predictionCase is one finished synthesis run and a way to build fresh
// black boxes of its components.
type predictionCase struct {
	name  string
	synth *core.Synthesizer
	// models are the final learned models of the run's components, in
	// order; fresh returns new components in the same order.
	models []*automata.Incomplete
	ifaces []legacy.Interface
	fresh  func() []legacy.Component
}

// predictionPlanDepth bounds the input plans walked along each model.
const predictionPlanDepth = 4

// runForPrediction runs synthesis to its verdict and keeps what
// TestPredictionMatchesExecution needs.
func runForPrediction(t *testing.T, name string, context *automata.Automaton, fresh func() []legacy.Component,
	ifaces []legacy.Interface, opts core.Options) predictionCase {
	t.Helper()
	synth, err := core.NewMulti(context, fresh(), ifaces, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r, err := synth.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return predictionCase{name: name, synth: synth, models: r.Models, ifaces: ifaces, fresh: fresh}
}

// predictionCorpus runs instances of the gen, wide, multi-component and
// scenario corpora, deterministic components all.
func predictionCorpus(t *testing.T) []predictionCase {
	var cases []predictionCase
	genCase := func(name string, inst *gen.Instance) {
		fresh := func() []legacy.Component {
			c, err := inst.Component()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return []legacy.Component{c}
		}
		cases = append(cases, runForPrediction(t, name, inst.Context, fresh,
			[]legacy.Interface{inst.Interface()}, core.Options{Property: inst.Property}))
	}
	for seed := int64(1); seed <= 80; seed++ {
		inst, err := gen.New(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		genCase(fmt.Sprintf("gen-%d", seed), inst)
	}
	for _, seed := range []int64{1, 2, 6, 348, 391, 908, 1317, 1389} {
		inst, err := gen.New(seed, gen.WideConfig())
		if err != nil {
			t.Fatal(err)
		}
		genCase(fmt.Sprintf("wide-%d", seed), inst)
	}
	for _, w := range multiTrajectories {
		inst, err := gen.NewMulti(w.seed, gen.DefaultConfig(), w.k)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("multi-%d-k%d", w.seed, w.k)
		fresh := func() []legacy.Component {
			cs, err := inst.Components()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return cs
		}
		cases = append(cases, runForPrediction(t, name, inst.Context, fresh, inst.Interfaces(),
			core.Options{Property: inst.Property}))
	}
	for _, w := range scenarioTrajectories {
		sc := pinnedScenario(w.seed)
		fresh := func() []legacy.Component { return []legacy.Component{legacy.MustWrapAutomaton(sc.Legacy)} }
		cases = append(cases, runForPrediction(t, fmt.Sprintf("scenario-%d", w.seed), sc.Context, fresh,
			[]legacy.Interface{sc.Iface}, core.Options{}))
	}
	return cases
}

// learnedPlans returns every input plan of at most depth steps along the
// learned transitions of a, from its initial state, the empty plan first.
func learnedPlans(a *automata.Automaton, depth int) [][]automata.SignalSet {
	plans := [][]automata.SignalSet{{}}
	var walk func(s automata.StateID, plan []automata.SignalSet)
	walk = func(s automata.StateID, plan []automata.SignalSet) {
		if len(plan) == depth {
			return
		}
		for _, tr := range a.TransitionsFrom(s) {
			next := append(append([]automata.SignalSet(nil), plan...), tr.Label.In)
			plans = append(plans, next)
			walk(tr.To, next)
		}
	}
	walk(a.Initial()[0], nil)
	return plans
}

// TestPredictionMatchesExecution checks the test predictor against the
// execution it replaces. For every input plan of up to
// predictionPlanDepth steps along the learned transitions of the final
// models of runs over the gen, wide, multi-component and scenario
// corpora, the model predicts the plan, and the prediction equals Record
// and Replay on a fresh component: the recording, its rendered minimal
// trace, the observed run and the rendered replay trace. Learning the
// predicted run into a clone of the model adds nothing. A nondeterministic
// model never predicts, not even the empty plan.
func TestPredictionMatchesExecution(t *testing.T) {
	plans := 0
	for _, pc := range predictionCorpus(t) {
		comps := pc.fresh()
		for i, m := range pc.models {
			for _, plan := range learnedPlans(m.Automaton(), predictionPlanDepth) {
				plans++
				rec, run, ok := pc.synth.PredictTest(i, plan)
				if !ok {
					t.Fatalf("%s component %d: plan %v along learned transitions not predicted", pc.name, i, plan)
				}
				wantRec := replay.Record(comps[i], pc.ifaces[i], plan)
				wantRun, err := replay.Replay(comps[i], wantRec)
				if err != nil {
					t.Fatalf("%s component %d: replay of %v: %v", pc.name, i, plan, err)
				}
				for _, cmp := range []struct{ what, got, want string }{
					{"recording", fmt.Sprintf("%+v", rec), fmt.Sprintf("%+v", wantRec)},
					{"minimal trace", rec.Minimal().Render(), wantRec.Minimal().Render()},
					{"observed run", fmt.Sprintf("%+v", run), fmt.Sprintf("%+v", wantRun)},
					{"replay trace", replay.ReplayTrace(pc.ifaces[i], run, false).Render(),
						replay.ReplayTrace(pc.ifaces[i], wantRun, false).Render()},
				} {
					if cmp.got != cmp.want {
						t.Fatalf("%s component %d, plan %v: predicted %s\n%s\nexecuted\n%s",
							pc.name, i, plan, cmp.what, cmp.got, cmp.want)
					}
				}
				delta, err := pc.synth.LearnIntoClone(i, run)
				if err != nil {
					t.Fatalf("%s component %d, plan %v: learning the prediction: %v", pc.name, i, plan, err)
				}
				if !delta.Empty() {
					t.Fatalf("%s component %d, plan %v: learning the prediction added %+v", pc.name, i, plan, delta)
				}
			}
		}
	}
	if plans < 500 {
		t.Fatalf("only %d plans checked", plans)
	}

	nondet := 0
	for seed := int64(1); seed <= 40; seed++ {
		inst, err := gen.New(seed, gen.NondetConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := inst.Component()
		if err != nil {
			t.Fatal(err)
		}
		synth, err := core.New(inst.Context, c, inst.Interface(), core.Options{Property: inst.Property, Nondet: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := synth.Run()
		if err != nil {
			t.Fatalf("nondet seed %d: %v", seed, err)
		}
		for _, plan := range learnedPlans(r.Model.Automaton(), predictionPlanDepth) {
			nondet++
			if _, _, ok := synth.PredictTest(0, plan); ok {
				t.Fatalf("nondet seed %d: nondeterministic model predicted plan %v", seed, plan)
			}
		}
		if r.Stats.TestsPredicted != 0 {
			t.Fatalf("nondet seed %d: %d tests predicted", seed, r.Stats.TestsPredicted)
		}
	}
	t.Logf("%d deterministic plans matched execution; %d nondeterministic plans not predicted", plans, nondet)
}
