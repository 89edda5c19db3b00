package main

import (
	"fmt"
	"math/rand"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/experiments"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// instance is one retained synthesis input of an in-process corpus. The
// automata are shared read-only by every pass; each pass wraps the legacy
// machine in a fresh stateful component.
type instance struct {
	name     string
	context  *automata.Automaton
	legacy   *automata.Automaton
	iface    legacy.Interface
	property ctl.Formula
	// truth builds the real integrated system M_a^c ‖ M_r for the oracle.
	truth func() (*automata.Automaton, error)
}

// genInstance adapts a generator instance.
func genInstance(inst *gen.Instance, name string) instance {
	return instance{name: name, context: inst.Context, legacy: inst.Legacy,
		iface: inst.Interface(), property: inst.Property, truth: inst.TrueComposition}
}

// genCorpusSize instances per gen-corpus pass: a pass takes ~0.4 s at
// one worker, so a 30 s window holds ~75 passes, and the retained corpus
// (~10 KB an instance) stays far below the heap growth a 40k-instance
// corpus caused. At 2048 instances the seed alone moved component steps
// per verdict by 7% (interquartile range over median, ten seeds, twice);
// at 4096, by 2.5% and 3.6%.
const genCorpusSize = 4096

// genCorpus draws the default-distribution instances of one run. Seeds
// are spaced by run seed so that runs never share an instance.
func genCorpus(seed int64) ([]instance, error) {
	out := make([]instance, genCorpusSize)
	for k := range out {
		s := seed<<20 + int64(k)
		inst, err := gen.New(s, gen.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("gen seed %d: %w", s, err)
		}
		out[k] = genInstance(inst, fmt.Sprintf("gen-%d", s))
	}
	return out, nil
}

// scenarioCorpusSize instances per scenario-deep pass (~1.2–1.8 s at one
// worker, 50 jobs). Run side by side in one process, six seeds' corpora of
// 400 machines differed in CPU per verdict by ±6%; twice as many machines
// should narrow that by about √2.
const scenarioCorpusSize = 800

// scenarioCorpus builds legacy machines of 48–128 states with contexts
// folded from 2–4 walks; every third instance has one fault injected. Size
// and walk count are stratified over the index rather than drawn, so the
// corpus mix is the same for every seed and only the machines differ.
func scenarioCorpus(seed int64) ([]instance, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]instance, scenarioCorpusSize)
	for i := range out {
		states := 48 + 80*(i%17)/16
		walks := 2 + (i/3)%3
		sc := experiments.GenerateScenario(rng, states, walks, 3)
		name := fmt.Sprintf("scenario-%d-%d", seed, i)
		if i%3 == 2 {
			sc = experiments.MutateScenario(rng, sc)
			name += "-mutated"
		}
		out[i] = instance{name: name, context: sc.Context, legacy: sc.Legacy, iface: sc.Iface,
			truth: func() (*automata.Automaton, error) {
				return automata.Compose("truth", sc.Context, sc.Legacy)
			}}
	}
	return out, nil
}

// referenceVerdict is the independent oracle: the frozen explicit-state
// checker ctl.Reference decides φ ∧ ¬δ on the true composition. Synthesis
// must prove exactly the instances where both hold (Lemma 5) and report a
// violation everywhere else (Lemma 6).
func referenceVerdict(sys *automata.Automaton, property ctl.Formula) core.Verdict {
	ref := ctl.NewReference(sys)
	if (property == nil || ref.Holds(property)) && ref.Holds(ctl.NoDeadlock()) {
		return core.VerdictProven
	}
	return core.VerdictViolation
}

// oracle computes the reference verdict of every corpus instance.
func oracle(corpus []instance) ([]core.Verdict, error) {
	want := make([]core.Verdict, len(corpus))
	for i, inst := range corpus {
		sys, err := inst.truth()
		if err != nil {
			return nil, fmt.Errorf("%s: true composition: %w", inst.name, err)
		}
		want[i] = referenceVerdict(sys, inst.property)
	}
	return want, nil
}

// item turns a corpus instance into a batch item whose component is
// wrapped for counting. onBuild, when non-nil, is told when Build runs.
func (inst instance) item(stats *callStats, timed bool, onBuild func()) batch.Item {
	return batch.Item{Name: inst.name, Build: func() (batch.Problem, error) {
		if onBuild != nil {
			onBuild()
		}
		comp, err := legacy.WrapAutomaton(inst.legacy)
		if err != nil {
			return batch.Problem{}, err
		}
		return batch.Problem{
			Context:   inst.context,
			Component: wrapComponent(comp, stats, timed),
			Interface: inst.iface,
			Property:  inst.property,
		}, nil
	}}
}

// wideSeed is the generator seed of the k-th wide instance of a run.
func wideSeed(seed int64, k int) int64 { return seed<<32 + int64(k) }

// wideInstance generates the k-th wide instance of a run.
func wideInstance(seed int64, k int) (instance, error) {
	s := wideSeed(seed, k)
	inst, err := gen.New(s, gen.WideConfig())
	if err != nil {
		return instance{}, fmt.Errorf("wide seed %d: %w", s, err)
	}
	// verifyd names manifest entries gen-<seed>-wide.
	return genInstance(inst, fmt.Sprintf("gen-%d-wide", s)), nil
}
