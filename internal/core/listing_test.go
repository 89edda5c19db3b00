package core_test

import (
	"math/rand"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/crossing"
	"muml/internal/ctl"
	"muml/internal/experiments"
	"muml/internal/legacy"
	"muml/internal/obs"
	"muml/internal/railcab"
)

// TestListingsRenderedWhenRead checks that listings rendered when read
// equal the ones rendered eagerly. The journal renders a cex_classified
// event's trace when it emits the event, before the counterexample is
// tested; every iteration's CounterexampleText() must equal the trace of
// its batch-index-0 event, and WitnessText() must equal the final
// iteration's, which is the witness as it read at the verdict. Each
// scenario runs once patched in place and once with DisableIncremental,
// which builds a new product every iteration.
func TestListingsRenderedWhenRead(t *testing.T) {
	type scenario struct {
		name     string
		context  *automata.Automaton
		comp     func() legacy.Component
		iface    legacy.Interface
		property ctl.Formula
	}
	shuttle := func(name string, comp func() legacy.Component) scenario {
		return scenario{name, railcab.FrontRole(), comp, railcab.RearInterface(railcab.RearRoleName), railcab.Constraint()}
	}
	gate := func(name string, comp func() legacy.Component, property ctl.Formula) scenario {
		return scenario{name, crossing.TrainRole(), comp, crossing.GateInterface(), property}
	}
	generated := func(name string, sc *experiments.Scenario) scenario {
		return scenario{name, sc.Context, func() legacy.Component { return legacy.MustWrapAutomaton(sc.Legacy) }, sc.Iface, nil}
	}
	rng := rand.New(rand.NewSource(1))
	deep := experiments.GenerateScenario(rng, 96, 3, 3)
	scenarios := []scenario{
		shuttle("railcab-correct", func() legacy.Component { return &railcab.CorrectShuttle{} }),
		shuttle("railcab-eager", func() legacy.Component { return &railcab.EagerShuttle{} }),
		shuttle("railcab-blocking", func() legacy.Component { return &railcab.BlockingShuttle{} }),
		gate("crossing-swift-deadline", crossing.SwiftGate, ctl.And(crossing.Constraint(), crossing.ClosureDeadline())),
		gate("crossing-sluggish-deadline", crossing.SluggishGate, ctl.And(crossing.Constraint(), crossing.ClosureDeadline())),
		gate("crossing-stuck", crossing.StuckGate, crossing.Constraint()),
		generated("generated-96", deep),
		generated("generated-96-mutated", experiments.MutateScenario(rng, deep)),
	}
	witnesses := 0
	for _, sc := range scenarios {
		for _, disable := range []bool{false, true} {
			var sink obs.MemorySink
			synth, err := core.New(sc.context, sc.comp(), sc.iface, core.Options{
				Property: sc.property, DisableIncremental: disable, Journal: obs.NewJournal(&sink)})
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			report, err := synth.Run()
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			if !disable && len(report.Iterations) > 1 && report.Stats.ProductPatches == 0 {
				t.Fatalf("%s: %d iterations and no patch", sc.name, len(report.Iterations))
			}

			eager := make(map[int]string)
			for _, e := range sink.Events() {
				if e.Kind == obs.KindCexClassified && e.N["batch_index"] == 0 {
					eager[e.Iter] = e.S["trace"]
				}
			}
			listed := 0
			for i := range report.Iterations {
				it := &report.Iterations[i]
				want, ok := eager[it.Index]
				if got := it.CounterexampleText(); got != want || ok != (it.Counterexample != nil) {
					t.Fatalf("%s (DisableIncremental=%v) iteration %d: listing\n%s\nwant the journal's\n%s",
						sc.name, disable, it.Index, got, want)
				}
				if ok {
					listed++
				}
			}
			if listed == 0 {
				t.Fatalf("%s: no iteration had a counterexample", sc.name)
			}

			final := eager[report.Iterations[len(report.Iterations)-1].Index]
			switch {
			case report.Verdict == core.VerdictViolation && report.WitnessText() != final:
				t.Fatalf("%s (DisableIncremental=%v): witness\n%s\nwant the listing at the verdict\n%s",
					sc.name, disable, report.WitnessText(), final)
			case report.Verdict == core.VerdictProven && report.WitnessText() != "":
				t.Fatalf("%s: proof with a witness listing:\n%s", sc.name, report.WitnessText())
			case report.Verdict == core.VerdictViolation:
				witnesses++
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no scenario ended in a violation; WitnessText went unchecked")
	}
}
