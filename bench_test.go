// Package muml_test benchmarks every experiment of DESIGN.md §4: one
// benchmark per reproduced figure/listing/claim, plus the design-choice
// ablations of DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
package muml_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/conformance"
	"muml/internal/core"
	"muml/internal/crossing"
	"muml/internal/ctl"
	"muml/internal/experiments"
	"muml/internal/gen"
	"muml/internal/learning"
	"muml/internal/legacy"
	"muml/internal/obs"
	"muml/internal/railcab"
	"muml/internal/replay"
)

// BenchmarkInitialSynthesis (E1): building the initial model and its
// chaotic closure from the structural interface (Figs. 4(a), 4(b)).
func BenchmarkInitialSynthesis(b *testing.B) {
	iface := railcab.RearInterface(railcab.RearRoleName)
	universe := automata.Universe(automata.UniverseSingleton)
	for i := 0; i < b.N; i++ {
		a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
		id := a.MustAddState("noConvoy::default")
		a.MarkInitial(id)
		model := automata.NewIncomplete(a)
		closure := automata.ChaoticClosure(model, universe)
		if closure.NumStates() != 4 {
			b.Fatal("unexpected closure size")
		}
	}
}

// BenchmarkContextFlatten (E2): flattening the front-role RTSC (Fig. 5).
func BenchmarkContextFlatten(b *testing.B) {
	for i := 0; i < b.N; i++ {
		front := railcab.FrontRole()
		if front.NumStates() != 4 {
			b.Fatal("unexpected front role size")
		}
	}
}

// BenchmarkIterationCheck (E3): one verification round — compose the
// context with the chaotic closure and check φ ∧ ¬δ (Listing 1.1).
func BenchmarkIterationCheck(b *testing.B) {
	iface := railcab.RearInterface(railcab.RearRoleName)
	a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
	id := a.MustAddState("noConvoy::default")
	a.MarkInitial(id)
	model := automata.NewIncomplete(a)
	closure := automata.ChaoticClosure(model, automata.Universe(automata.UniverseSingleton))
	front := railcab.FrontRole()
	property := ctl.WeakenForChaos(railcab.Constraint())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := automata.Compose("system", front, closure)
		if err != nil {
			b.Fatal(err)
		}
		checker := ctl.NewChecker(sys)
		if !checker.Holds(property) {
			b.Fatal("weakened property should hold initially")
		}
		if checker.Holds(ctl.NoDeadlock()) {
			b.Fatal("initial closure should have deadlock hypotheses")
		}
	}
}

// BenchmarkRecordReplay (E4): the two-phase record/deterministic-replay
// pipeline on the correct shuttle (Listings 1.2/1.3).
func BenchmarkRecordReplay(b *testing.B) {
	iface := railcab.RearInterface(railcab.RearRoleName)
	comp := &railcab.CorrectShuttle{}
	inputs := []automata.SignalSet{
		automata.EmptySet,
		automata.NewSignalSet(railcab.StartConvoy),
		automata.EmptySet,
		automata.NewSignalSet(railcab.BreakConvoyAccepted),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := replay.Record(comp, iface, inputs)
		if _, err := replay.Replay(comp, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastConflict (E5): full synthesis run on the eager shuttle up
// to the fast conflict verdict (Fig. 6, Listing 1.4).
func BenchmarkFastConflict(b *testing.B) {
	benchmarkSynthesis(b, func() legacy.Component { return &railcab.EagerShuttle{} }, core.VerdictViolation)
}

// BenchmarkSynthesisToProof (E6): full synthesis run on the correct
// shuttle up to the proof (Fig. 7, Listing 1.5).
func BenchmarkSynthesisToProof(b *testing.B) {
	benchmarkSynthesis(b, func() legacy.Component { return &railcab.CorrectShuttle{} }, core.VerdictProven)
}

// BenchmarkConfirmedDeadlock (E4/E10): full synthesis run on the blocking
// shuttle up to the confirmed deadlock.
func BenchmarkConfirmedDeadlock(b *testing.B) {
	benchmarkSynthesis(b, func() legacy.Component { return &railcab.BlockingShuttle{} }, core.VerdictViolation)
}

func benchmarkSynthesis(b *testing.B, make func() legacy.Component, want core.Verdict) {
	b.Helper()
	front := railcab.FrontRole()
	iface := railcab.RearInterface(railcab.RearRoleName)
	for i := 0; i < b.N; i++ {
		synth, err := core.New(front, make(), iface, core.Options{Property: railcab.Constraint()})
		if err != nil {
			b.Fatal(err)
		}
		report, err := synth.Run()
		if err != nil {
			b.Fatal(err)
		}
		if report.Verdict != want {
			b.Fatalf("verdict = %v, want %v", report.Verdict, want)
		}
	}
}

// BenchmarkIncrementalVsRebuild: the same multi-iteration synthesis runs
// with the incremental (delta-patched) system construction and with the
// from-scratch rebuild it replaces. The incremental path is the default;
// the rebuild leg is the pre-incremental baseline.
func BenchmarkIncrementalVsRebuild(b *testing.B) {
	scenarios := []struct {
		name string
		run  func(b *testing.B, opts core.Options)
	}{
		{"railcab-proof", func(b *testing.B, opts core.Options) {
			front := railcab.FrontRole()
			iface := railcab.RearInterface(railcab.RearRoleName)
			opts.Property = railcab.Constraint()
			for i := 0; i < b.N; i++ {
				synth, err := core.New(front, &railcab.CorrectShuttle{}, iface, opts)
				if err != nil {
					b.Fatal(err)
				}
				report, err := synth.Run()
				if err != nil {
					b.Fatal(err)
				}
				if report.Verdict != core.VerdictProven {
					b.Fatal("expected proof")
				}
			}
		}},
		{"random-64-states", func(b *testing.B, opts core.Options) {
			rng := rand.New(rand.NewSource(64))
			sc := experiments.GenerateScenario(rng, 64, 2, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				synth, err := core.New(sc.Context, sc.Component, sc.Iface, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := synth.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	// Each leg runs with a private metrics registry and reports the
	// observability counters as per-op benchmark metrics alongside ns/op.
	instrumented := func(b *testing.B, opts core.Options, run func(*testing.B, core.Options)) {
		reg := obs.NewRegistry()
		automata.EnableObservability(nil, reg)
		defer automata.DisableObservability()
		opts.Metrics = reg
		run(b, opts)
		perOp := func(name string) float64 {
			return float64(reg.Counter(name).Value()) / float64(b.N)
		}
		b.ReportMetric(perOp("automata.product_patches"), "patches/op")
		b.ReportMetric(perOp("automata.product_rebuilds"), "rebuilds/op")
		b.ReportMetric(perOp("ctl.fixpoint_iters"), "fixpoint-iters/op")
		hits := reg.Counter("automata.intern_hits").Value()
		misses := reg.Counter("automata.intern_misses").Value()
		if hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "intern-hit-rate")
		}
	}
	for _, sc := range scenarios {
		b.Run(sc.name+"/incremental", func(b *testing.B) {
			instrumented(b, core.Options{}, sc.run)
		})
		b.Run(sc.name+"/rebuild", func(b *testing.B) {
			instrumented(b, core.Options{DisableIncremental: true}, sc.run)
		})
	}
}

// BenchmarkSynthesisScaling (E7): synthesis effort over growing random
// legacy components.
func BenchmarkSynthesisScaling(b *testing.B) {
	for _, size := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("states=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(size)))
			sc := experiments.GenerateScenario(rng, size, 2, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := synth.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLStarVsContextGuided (E8): the same component learned by L*
// with a perfect oracle vs decided by the context-guided synthesis.
func BenchmarkLStarVsContextGuided(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	sc := experiments.GenerateScenario(rng, 16, 2, 3)
	universe := automata.Universe(automata.UniverseSingleton)

	b.Run("lstar-perfect-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := learning.LearnComponent(
				sc.Component, sc.Iface, universe, learning.NewPerfectOracle(sc.Legacy), 256); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("context-guided-synthesis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := synth.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWMethodSuite (E9): W-method suite generation per assumed
// implementation bound.
func BenchmarkWMethodSuite(b *testing.B) {
	universe := automata.Universe(automata.UniverseSingleton)
	hyp := core.ExploreComponent(&railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName), universe, nil, 64)
	alphabet := conformance.InputAlphabet(hyp, universe)
	for gap := 0; gap <= 2; gap++ {
		bound := hyp.NumStates() + gap
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := conformance.Suite(hyp, alphabet, bound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultInjectionSweep (E10): verdict for one mutated scenario
// (synthesis + ground truth comparison).
func BenchmarkFaultInjectionSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	sc := experiments.MutateScenario(rng, experiments.GenerateScenario(rng, 8, 2, 3))
	for i := 0; i < b.N; i++ {
		synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := synth.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternVerification (E11): verifying the DistanceCoordination
// pattern (Fig. 1).
func BenchmarkPatternVerification(b *testing.B) {
	b.Run("synchronous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := railcab.Pattern().Verify()
			if err != nil || !v.Satisfied {
				b.Fatalf("verify: %v satisfied=%v", err, v.Satisfied)
			}
		}
	})
	b.Run("delayed-connector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := railcab.DelayedPattern(1, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConvoySim (E12): the emergency braking kinematics.
func BenchmarkConvoySim(b *testing.B) {
	cfg := railcab.DefaultDynamics()
	for i := 0; i < b.N; i++ {
		res := railcab.EmergencyBrakeScenario(cfg, railcab.ModeNoConvoy, railcab.ModeConvoy)
		if !res.Collision {
			b.Fatal("expected collision")
		}
	}
}

// BenchmarkRefinementAlgorithms (ablation, DESIGN §5): the sound
// polynomial simulation check vs the exact subset-construction refinement
// decision.
func BenchmarkRefinementAlgorithms(b *testing.B) {
	universe := automata.Universe(automata.UniverseSingleton)
	impl := core.ExploreComponent(&railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName), universe, nil, 64)
	model := automata.NewIncomplete(impl.Clone("model"))
	spec := automata.ChaoticClosure(model, universe)

	b.Run("simulates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			automata.Simulates(impl, spec)
		}
	})
	b.Run("refines-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := automata.Refines(impl, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChaosEncoding (ablation, DESIGN §5): the amended unknown-only
// closure vs the literal Definition 9 closure (which has more chaos
// transitions and never admits the proof).
func BenchmarkChaosEncoding(b *testing.B) {
	universe := automata.Universe(automata.UniverseSingleton)
	impl := core.ExploreComponent(&railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName), universe, nil, 64)
	model := automata.NewIncomplete(impl)

	b.Run("amended-unknown-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			automata.ChaoticClosure(model, universe)
		}
	})
	b.Run("literal-def9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			automata.ChaoticClosureLiteral(model, universe)
		}
	})
}

// BenchmarkMultiLegacy (extension, §7): parallel learning of two legacy
// components.
func BenchmarkMultiLegacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		coordinator, comps, ifaces := experiments.TwoServiceDemo(false)
		m, err := core.NewMulti(coordinator, comps, ifaces, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		report, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if report.Verdict != core.VerdictProven {
			b.Fatal("expected proof")
		}
	}
}

// BenchmarkCrossingSynthesis (E13): the timed rail-crossing case study —
// clocks in the context, deadline property in CCTL.
func BenchmarkCrossingSynthesis(b *testing.B) {
	property := ctl.And(crossing.Constraint(), crossing.ClosureDeadline())
	b.Run("swift-proven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth, err := core.New(crossing.TrainRole(), crossing.SwiftGate(),
				crossing.GateInterface(), core.Options{Property: property})
			if err != nil {
				b.Fatal(err)
			}
			report, err := synth.Run()
			if err != nil || report.Verdict != core.VerdictProven {
				b.Fatalf("%v / %v", err, report)
			}
		}
	})
	b.Run("sluggish-violation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth, err := core.New(crossing.TrainRole(), crossing.SluggishGate(),
				crossing.GateInterface(), core.Options{Property: property})
			if err != nil {
				b.Fatal(err)
			}
			report, err := synth.Run()
			if err != nil || report.Verdict != core.VerdictViolation {
				b.Fatalf("%v / %v", err, report)
			}
		}
	})
}

// BenchmarkModelChecker: raw CCTL checking over the composed RailCab
// system (all operators exercised by the pattern property set).
func BenchmarkModelChecker(b *testing.B) {
	sys, err := railcab.Pattern().Compose()
	if err != nil {
		b.Fatal(err)
	}
	props := []ctl.Formula{
		railcab.Constraint(),
		ctl.NoDeadlock(),
		ctl.MustParse("AG (frontRole.convoy -> AF[1,8] frontRole.noConvoy or AG frontRole.convoy)"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker := ctl.NewChecker(sys)
		for _, p := range props {
			checker.Holds(p)
		}
	}
}

// BenchmarkBatchThroughput: the same 32-instance generated batch through
// the internal/batch pool sequentially and at GOMAXPROCS workers, each
// with a fresh shared memo cache. Per-op metrics report instances/sec and
// the cache hit rate; compare the legs (and the committed BENCH_batch.json
// regenerated by `experiments -batch`) for the parallel speedup. On a
// single-core runner the legs should be within noise of each other.
func BenchmarkBatchThroughput(b *testing.B) {
	const instances = 32
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		workerCounts[1] = 8 // still exercise the concurrent pool and cache paths
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var throughput, hitRate float64
			for i := 0; i < b.N; i++ {
				sum, err := batch.Verify(batch.GenItems(1, instances, gen.DefaultConfig()), batch.Options{
					Workers: workers,
					Memo:    automata.NewMemoCache(nil),
				})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Errored != 0 {
					b.Fatalf("%d instances errored", sum.Errored)
				}
				throughput = sum.Throughput()
				if total := sum.Cost.MemoHits + sum.Cost.MemoMisses; total > 0 {
					hitRate = float64(sum.Cost.MemoHits) / float64(total)
				}
			}
			b.ReportMetric(throughput, "instances/sec")
			b.ReportMetric(hitRate, "memo-hit-rate")
		})
	}
}

// recordedPatch is one patch of a recorded scenario trajectory: the
// context, the universe, the learned model as the patch found it, and the
// delta it applied.
type recordedPatch struct {
	context  *automata.Automaton
	universe automata.InteractionUniverse
	final    *automata.Incomplete
	before   []automata.LearnDelta // what the model had learned before the patch
	delta    automata.LearnDelta
}

// recordPatch runs a 96-state scenario machine to its verdict and keeps
// the last patch that left a deadlock to find: the largest product the
// loop checks and learns from.
func recordPatch(b *testing.B) recordedPatch {
	b.Helper()
	sc := experiments.GenerateScenario(rand.New(rand.NewSource(96)), 96, 3, 3)
	synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		b.Fatal(err)
	}
	its := report.Iterations
	k := len(its) - 1
	for k > 0 && (!its[k].Patched || its[k].DeadlockFree) {
		k--
	}
	if k < 2 {
		b.Fatal("no patched iteration with a deadlock counterexample after a patch")
	}
	p := recordedPatch{context: sc.Context, universe: automata.Universe(automata.UniverseSingleton),
		final: report.Model, delta: its[k-1].Delta}
	for _, it := range its[:k-1] {
		p.before = append(p.before, it.Delta)
	}
	return p
}

// learn replays a recorded delta into m, whose states are a prefix of the
// final model's.
func (p recordedPatch) learn(b *testing.B, m *automata.Incomplete, d automata.LearnDelta) {
	fin, a := p.final.Automaton(), m.Automaton()
	for _, s := range d.NewStates {
		if _, err := a.AddState(fin.StateName(s), fin.Labels(s)...); err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range d.NewTransitions {
		if err := a.AddTransition(t.From, t.Label, t.To); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range d.NewBlocked {
		if err := m.Block(e.State, e.Label); err != nil {
			b.Fatal(err)
		}
	}
}

// system builds the system for the model as the recorded patch found it,
// and learns the patch's delta into its model. The system is built one
// delta earlier and patched with it, so the recorded patch reuses a
// patched system's buffers as the loop's patches do.
func (p recordedPatch) system(b *testing.B) *automata.IncrementalSystem {
	fin := p.final.Automaton()
	a := automata.New(fin.Name(), fin.Inputs(), fin.Outputs())
	a.MarkInitial(a.MustAddState(fin.StateName(0), fin.Labels(0)...))
	m := automata.NewIncomplete(a)
	last := len(p.before) - 1
	for _, d := range p.before[:last] {
		p.learn(b, m, d)
	}
	ic, err := automata.NewIncrementalSystem(p.context, m, p.universe)
	if err != nil {
		b.Fatal(err)
	}
	p.learn(b, m, p.before[last])
	if err := ic.Apply(p.before[last]); err != nil {
		b.Fatal(err)
	}
	p.learn(b, m, p.delta)
	return ic
}

// BenchmarkPatchApply: one patch layer step, IncrementalSystem.Apply of
// a recorded scenario delta (each op patches a freshly built system).
func BenchmarkPatchApply(b *testing.B) {
	p := recordPatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ic := p.system(b)
		b.StartTimer()
		if err := ic.Apply(p.delta); err != nil {
			b.Fatal(err)
		}
		if patched, reason := ic.LastDecision(); !patched {
			b.Fatalf("recorded delta rebuilt the system: %s", reason)
		}
	}
}

// BenchmarkPatchedCheck: one check layer step, Rebind+CheckManyCtx of
// deadlock freedom on the patched product of BenchmarkPatchApply, which
// violates it.
func BenchmarkPatchedCheck(b *testing.B) {
	p := recordPatch(b)
	ic := p.system(b)
	if err := ic.Apply(p.delta); err != nil {
		b.Fatal(err)
	}
	sys := ic.System()
	checker := ctl.NewChecker(sys)
	noDeadlock := ctl.NoDeadlock()
	check := func() {
		checker.Rebind(sys)
		res, err := checker.CheckManyCtx(context.Background(), noDeadlock, 1)
		if err != nil || res[0].Holds {
			b.Fatalf("check = %+v, %v; want a deadlock counterexample", res, err)
		}
	}
	check() // grows the checker's buffers, as the loop's earlier rounds do
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
	b.ReportMetric(float64(sys.NumStates()), "states")
}

// BenchmarkInitialBuild: the build layer of a gen-corpus instance's first
// iteration, NewIncrementalSystemWith over the instance's context and its
// initial model M_l⁰ (the initial state alone, labelled as the loop labels
// it), with a memo that already holds the closure, as every instance of a
// batch but the first finds it.
func BenchmarkInitialBuild(b *testing.B) { benchInitialBuild(b, gen.DefaultConfig(), true) }

// BenchmarkInitialBuildWide is BenchmarkInitialBuild over a wide instance
// (gen.WideConfig: 40+30 signals, 1,271 singleton labels), whose universe
// also holds its label layout after the warm-up build.
func BenchmarkInitialBuildWide(b *testing.B) { benchInitialBuild(b, gen.WideConfig(), true) }

// BenchmarkInitialBuildWideCold is BenchmarkInitialBuildWide without a
// memo, as NewIncrementalSystem and a core.Run without Options.Memo build:
// every build compiles its universe and lays out its labels.
func BenchmarkInitialBuildWideCold(b *testing.B) { benchInitialBuild(b, gen.WideConfig(), false) }

func benchInitialBuild(b *testing.B, cfg gen.Config, warm bool) {
	inst, err := gen.New(1<<20, cfg)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := inst.Component()
	if err != nil {
		b.Fatal(err)
	}
	iface := inst.Interface()
	a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
	init := legacy.InitialStateName(comp)
	a.MarkInitial(a.MustAddState(init, core.QualifiedLabeler(iface.Name)(init)...))
	model := automata.NewIncomplete(a)
	memo := automata.NewMemoCache(nil)
	universe := memo.Universe(automata.Universe(automata.UniverseSingleton), iface.Inputs, iface.Outputs)
	build := func() *automata.IncrementalSystem {
		u, m := universe, memo
		if !warm {
			u, m = automata.CompileUniverse(automata.Universe(automata.UniverseSingleton), iface.Inputs, iface.Outputs), nil
		}
		ic, err := automata.NewIncrementalSystemWith(context.Background(), inst.Context, model, u, m)
		if err != nil {
			b.Fatal(err)
		}
		return ic
	}
	build() // warms the memo
	b.ReportAllocs()
	b.ResetTimer()
	var ic *automata.IncrementalSystem
	for i := 0; i < b.N; i++ {
		ic = build()
	}
	b.ReportMetric(float64(ic.System().NumStates()), "states")
}

// BenchmarkGenWide: generating one wide instance (gen.New over
// gen.WideConfig), ground truth included, as batchverify and verifyd do
// for every manifest entry.
func BenchmarkGenWide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.New(int64(i+1), gen.WideConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompose: one product construction (automata.Compose) of a
// context with its legacy ground truth, over gen default instances, wide
// instances (70 signals) and scenario machines (48–128 legacy states).
// Each op composes the next pair of its set; run a multiple of the set
// size (-benchtime=640x) for a figure over whole sets.
func BenchmarkCompose(b *testing.B) {
	type pair struct{ context, legacy *automata.Automaton }
	genPairs := func(cfg gen.Config, n int) []pair {
		var out []pair
		for seed := int64(1); seed <= int64(n); seed++ {
			inst, err := gen.New(seed, cfg)
			if err != nil {
				b.Fatal(err)
			}
			truth, err := inst.Truth()
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, pair{inst.Context, truth})
		}
		return out
	}
	var scenarios []pair
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		sc := experiments.GenerateScenario(rng, 48+80*(i%17)/16, 2+(i/3)%3, 3)
		scenarios = append(scenarios, pair{sc.Context, sc.Legacy})
	}
	for _, set := range []struct {
		name  string
		pairs []pair
	}{
		{"gen", genPairs(gen.DefaultConfig(), 64)},
		{"wide", genPairs(gen.WideConfig(), 16)},
		{"scenario", scenarios},
	} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := set.pairs[i%len(set.pairs)]
				if _, err := automata.Compose("truth", p.context, p.legacy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
