package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/experiments"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// trajectory is the observable outcome of one deterministic synthesis run.
type trajectory struct {
	seed                              int64
	verdict                           core.Verdict
	kind                              core.ViolationKind
	iterations, tests, probes, resets int
	states, transitions, refusals     int
	peakStates                        int
	ctlWords                          int64
	witness                           string
}

// trajectoryOf reads the trajectory of the run of seed off its report.
func trajectoryOf(seed int64, r *core.Report) trajectory {
	st := r.Stats
	return trajectory{seed, r.Verdict, r.Kind, st.Iterations, st.TestsRun, st.ProbesRun,
		st.ResetsUsed, st.StatesLearned, st.TransitionsLearned, st.RefusalsLearned,
		st.PeakSystemStates, st.CTLWordsScanned, r.WitnessText()}
}

// wideTrajectories were recorded when alphabets over 64 signals composed on
// a separate slice-based label path. Seeds 1–24 are consecutive and all end
// in their first iteration; the other five need a second one, so their
// product is delta-patched. Only tests and resets moved since, when the
// tests the learned model predicts stopped executing, and resets again
// when probes started stepping on from where the component stands.
var wideTrajectories = []trajectory{
	{1, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 1, 1, 61, 6, 4, "ctx.c0, impl.s0\n"},
	{2, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, 2, "ctx.c0, impl.s0\n"},
	{3, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 0, 0, 62, 6, 0, "ctx.c0, impl.s0\n"},
	{4, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 2, 0, 1, 61, 4, 4, "ctx.c0, impl.s0\n"},
	{5, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 0, 0, 62, 4, 4, "ctx.c0, impl.s0\n"},
	{6, core.VerdictViolation, core.ViolationConstraint, 1, 0, 3, 2, 0, 1, 92, 4, 5, "ctx.c0, impl.s0\n"},
	{7, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, 2, "ctx.c0, impl.s0\n"},
	{8, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, 2, "ctx.c0, impl.s0\n"},
	{9, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 1, 0, 0, 31, 4, 0, "ctx.c0, impl.s0\n"},
	{10, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 0, 0, 62, 6, 4, "ctx.c0, impl.s0\n"},
	{11, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 1, 0, 0, 31, 4, 4, "ctx.c0, impl.s0\n"},
	{12, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 10, 2, "ctx.c0, impl.s0\n"},
	{13, core.VerdictViolation, core.ViolationConstraint, 1, 0, 1, 1, 0, 0, 31, 8, 7, "ctx.c0, impl.s0\n"},
	{14, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, 2, "ctx.c0, impl.s0\n"},
	{15, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 0, 0, 62, 4, 0, "ctx.c0, impl.s0\n"},
	{16, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 0, 0, 62, 4, 0, "ctx.c0, impl.s0\n"},
	{17, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 1, 0, 0, 31, 4, 3, "ctx.c0, impl.s0\n"},
	{18, core.VerdictViolation, core.ViolationConstraint, 1, 0, 1, 1, 0, 0, 31, 4, 7, "ctx.c0, impl.s0\n"},
	{19, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 1, 1, 1, 61, 6, 5, "ctx.c0, impl.s0\n"},
	{20, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, 4, "ctx.c0, impl.s0\n"},
	{21, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 2, 0, 1, 61, 4, 4, "ctx.c0, impl.s0\n"},
	{22, core.VerdictViolation, core.ViolationConstraint, 1, 0, 1, 1, 0, 0, 31, 6, 6, "ctx.c0, impl.s0\n"},
	{23, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 1, 0, 0, 31, 4, 2, "ctx.c0, impl.s0\n"},
	{24, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 1, 0, 0, 31, 4, 2, "ctx.c0, impl.s0\n"},
	{348, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 2, 1, 1, 1, 61, 6, 8, "ctx.c0, impl.s0\nτ\nctx.c0, impl.s1\n"},
	{391, core.VerdictProven, core.ViolationNone, 2, 0, 1, 1, 0, 1, 30, 4, 6, ""},
	{908, core.VerdictProven, core.ViolationNone, 2, 0, 2, 1, 0, 1, 61, 10, 4, ""},
	{1317, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 3, 2, 0, 1, 61, 8, 0, "ctx.c0, impl.s0\nctx.i17!, impl.i17?\nctx.c1, impl.s0\n"},
	{1389, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 6, 2, 1, 2, 184, 10, 0, "ctx.c0, impl.s0\nctx.i31!, impl.i31?\nctx.c0, impl.s1\n"},
}

// TestWideTrajectoriesPinned runs the pinned wide instances on the
// interned, delta-patched system and requires the recorded trajectories,
// witness listings included. The CheckIncremental pass verifies every
// build against a from-scratch ChaoticClosure and Compose.
func TestWideTrajectoriesPinned(t *testing.T) {
	for _, check := range []bool{false, true} {
		for _, want := range wideTrajectories {
			inst, err := gen.New(want.seed, gen.WideConfig())
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			comp, err := inst.Component()
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			synth, err := core.New(inst.Context, comp, inst.Interface(),
				core.Options{Property: inst.Property, CheckIncremental: check})
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			r, err := synth.Run()
			if err != nil {
				t.Fatalf("seed %d (check=%v): %v", want.seed, check, err)
			}
			if got := trajectoryOf(want.seed, r); got != want {
				t.Errorf("seed %d (check=%v):\n got %+v\nwant %+v", want.seed, check, got, want)
			}
			if st := r.Stats; st.ProductRebuilds != 1 || st.ProductPatches != st.Iterations-1 {
				t.Errorf("seed %d: %d rebuilds and %d patches over %d iterations, want 1 and %d",
					want.seed, st.ProductRebuilds, st.ProductPatches, st.Iterations, st.Iterations-1)
			}
		}
	}
}

// multiTrajectory is a trajectory of gen.NewMulti(seed, gen.DefaultConfig(),
// k): k components, each with its own learned model, proving or refuting
// the property in one loop.
type multiTrajectory struct {
	k int
	trajectory
}

// multiTrajectories pin seeds 1–12 (k = 2) and 1–8 (k = 3), which all end
// in their first iteration, and the longer runs among seeds 1–400. They
// were recorded while every test still executed; only tests and resets
// moved when the tests the learned models predict stopped executing, and
// resets again when probes started stepping on from where each component
// stands.
var multiTrajectories = []multiTrajectory{
	{2, trajectory{1, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 2, 2, 2, 4, 12, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{2, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 2, 0, 0, 6, 16, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{3, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 2, 1, 2, 4, 8, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{4, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 2, 0, 0, 0, 16, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{5, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 2, 0, 0, 0, 12, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{6, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 2, 0, 0, 0, 8, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{7, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 3, 3, 2, 2, 7, 12, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{8, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 2, 2, 2, 2, 4, 20, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{9, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 2, 0, 0, 0, 8, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{10, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 2, 0, 0, 0, 8, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{11, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 3, 3, 0, 3, 6, 16, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{12, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 2, 0, 0, 3, 8, 2, "ctx.c0, impl0.s0, impl1.s0\n"}},
	{2, trajectory{26, core.VerdictViolation, core.ViolationConstraint, 2, 0, 3, 3, 2, 3, 6, 24, 4, "ctx.c0, impl0.s0, impl1.s0\nctx.i1_02!, impl1.i1_02?\nctx.c1, impl0.s3, impl1.s1\n"}},
	{2, trajectory{33, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 4, 2, 2, 3, 9, 12, 4, "ctx.c0, impl0.s0, impl1.s0\nimpl1.o1_01!, ctx.o1_01?\nctx.c0, impl0.s1, impl1.s1\n"}},
	{2, trajectory{38, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 5, 4, 1, 3, 6, 20, 4, "ctx.c0, impl0.s0, impl1.s0\nimpl0.o0_01!, ctx.o0_01?\nctx.c1, impl0.s0, impl1.s0\n"}},
	{2, trajectory{49, core.VerdictProven, core.ViolationNone, 3, 1, 3, 5, 0, 3, 9, 24, 6, ""}},
	{2, trajectory{53, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 6, 4, 1, 3, 12, 16, 4, "ctx.c0, impl0.s0, impl1.s0\nimpl1.o1_00!, ctx.o1_00?\nctx.c2, impl0.s0, impl1.s4\n"}},
	{2, trajectory{79, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 8, 4, 3, 4, 17, 12, 4, "ctx.c0, impl0.s0, impl1.s0\nctx.i0_00!, impl1.o1_01!, ctx.o1_01?, impl0.i0_00?\nctx.c1, impl0.s4, impl1.s0\n"}},
	{2, trajectory{129, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 8, 8, 3, 5, 13, 12, 4, "ctx.c0, impl0.s0, impl1.s0\nctx.i1_02!, impl1.o1_01!, ctx.o1_01?, impl1.i1_02?\nctx.c0, impl0.s0, impl1.s4\n"}},
	{2, trajectory{304, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 7, 5, 6, 6, 15, 20, 4, "ctx.c0, impl0.s0, impl1.s0\nctx.i1_02!, impl1.i1_02?\nctx.c1, impl0.s3, impl1.s2\n"}},
	{3, trajectory{1, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 3, 0, 0, 0, 24, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{2, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 3, 0, 0, 0, 16, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{3, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 4, 4, 2, 4, 8, 16, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{4, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 3, 0, 0, 3, 32, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{5, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 3, 3, 1, 3, 6, 48, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{6, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 3, 0, 0, 0, 40, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{7, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 1, 3, 0, 0, 3, 16, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{8, core.VerdictViolation, core.ViolationDeadlock, 1, 0, 3, 3, 3, 3, 6, 16, 2, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\n"}},
	{3, trajectory{205, core.VerdictViolation, core.ViolationConstraint, 2, 0, 5, 4, 3, 3, 12, 40, 4, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\nctx.i2_02!, impl2.i2_02?\nctx.c3, impl0.s3, impl1.s2, impl2.s1\n"}},
	{3, trajectory{284, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 5, 3, 2, 4, 11, 32, 4, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\nτ\nctx.c1, impl0.s2, impl1.s1, impl2.s0\n"}},
	{3, trajectory{342, core.VerdictViolation, core.ViolationDeadlock, 2, 0, 5, 4, 2, 3, 12, 56, 4, "ctx.c0, impl0.s0, impl1.s0, impl2.s0\nctx.i1_02!, impl0.o0_01!, ctx.o0_01?, impl1.i1_02?\nctx.c2, impl0.s2, impl1.s0, impl2.s1\n"}},
}

// TestMultiTrajectoriesPinned runs the pinned multi-component instances
// and requires the recorded trajectories, witness listings included.
func TestMultiTrajectoriesPinned(t *testing.T) {
	for _, want := range multiTrajectories {
		inst, err := gen.NewMulti(want.seed, gen.DefaultConfig(), want.k)
		if err != nil {
			t.Fatalf("seed %d (k=%d): %v", want.seed, want.k, err)
		}
		comps, err := inst.Components()
		if err != nil {
			t.Fatalf("seed %d (k=%d): %v", want.seed, want.k, err)
		}
		synth, err := core.NewMulti(inst.Context, comps, inst.Interfaces(), core.Options{Property: inst.Property})
		if err != nil {
			t.Fatalf("seed %d (k=%d): %v", want.seed, want.k, err)
		}
		r, err := synth.Run()
		if err != nil {
			t.Fatalf("seed %d (k=%d): %v", want.seed, want.k, err)
		}
		if got := trajectoryOf(want.seed, r); got != want.trajectory {
			t.Errorf("seed %d (k=%d):\n got %+v\nwant %+v", want.seed, want.k, got, want.trajectory)
		}
	}
}

// pinnedScenario builds scenario machine seed with the size mix of the
// scenario-deep benchmark corpus: 48–128 legacy states, a context folded
// from 2–4 walks, and one injected fault in every third machine.
func pinnedScenario(seed int64) *experiments.Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := experiments.GenerateScenario(rng, 48+80*int(seed%17)/16, 2+int(seed/3)%3, 3)
	if seed%3 == 2 {
		sc = experiments.MutateScenario(rng, sc)
	}
	return sc
}

// scenarioTrajectories pin scenario machines 0–23 (deadlock freedom only).
// They were recorded while every test still executed; only tests and
// resets moved when the tests the learned model predicts stopped executing,
// and resets again when probes started stepping on from where the
// component stands.
var scenarioTrajectories = []trajectory{
	{0, core.VerdictProven, core.ViolationNone, 17, 0, 18, 15, 15, 18, 36, 58, 0, ""},
	{1, core.VerdictProven, core.ViolationNone, 13, 0, 13, 7, 11, 13, 26, 30, 0, ""},
	{2, core.VerdictViolation, core.ViolationDeadlock, 11, 0, 13, 12, 10, 12, 27, 42, 0, "context.s0, legacy.s0\nlegacy.u!, context.u?\ncontext.s24, legacy.s24\ncontext.y!, legacy.u!, context.u?, legacy.y?\ncontext.s49, legacy.s49\nlegacy.u!, context.u?\ncontext.s41, legacy.s41\nτ\ncontext.s22, legacy.s22\nlegacy.u!, context.u?\ncontext.s35, legacy.s35\ncontext.y!, legacy.u!, context.u?, legacy.y?\ncontext.s39, legacy.s39\n"},
	{3, core.VerdictProven, core.ViolationNone, 19, 0, 19, 11, 17, 19, 38, 44, 0, ""},
	{4, core.VerdictProven, core.ViolationNone, 14, 0, 16, 16, 12, 16, 32, 34, 0, ""},
	{5, core.VerdictViolation, core.ViolationDeadlock, 17, 0, 20, 20, 16, 20, 40, 54, 0, "context.s0, legacy.s0\ncontext.x!, legacy.u!, context.u?, legacy.x?\ncontext.s66, legacy.s66\ncontext.y!, legacy.y?\ncontext.s17, legacy.s17\ncontext.y!, legacy.y?\ncontext.s55, legacy.s55\ncontext.x!, legacy.v!, context.v?, legacy.x?\ncontext.s12, legacy.s12\ncontext.y!, legacy.u!, context.u?, legacy.y?\ncontext.s22, legacy.s22\ncontext.y!, legacy.v!, context.v?, legacy.y?\ncontext.s19, legacy.s19\n"},
	{6, core.VerdictProven, core.ViolationNone, 33, 0, 36, 34, 31, 36, 72, 124, 0, ""},
	{7, core.VerdictProven, core.ViolationNone, 15, 0, 16, 8, 13, 16, 32, 48, 0, ""},
	{8, core.VerdictViolation, core.ViolationDeadlock, 8, 0, 10, 9, 9, 10, 20, 42, 0, "context.s0, legacy.s0\nlegacy.u!, context.u?\ncontext.s28, legacy.s28\ncontext.x!, legacy.u!, context.u?, legacy.x?\ncontext.s33, legacy.s33\ncontext.x!, legacy.x?\ncontext.s53, legacy.s53\ncontext.x!, legacy.v!, context.v?, legacy.x?\ncontext.s25, legacy.s25\n"},
	{9, core.VerdictProven, core.ViolationNone, 24, 0, 24, 12, 22, 24, 48, 86, 0, ""},
	{10, core.VerdictProven, core.ViolationNone, 27, 0, 27, 24, 25, 27, 54, 68, 0, ""},
	{11, core.VerdictViolation, core.ViolationDeadlock, 24, 0, 25, 22, 23, 25, 50, 64, 0, "context.s0, legacy.s0\ncontext.x!, legacy.u!, context.u?, legacy.x?\ncontext.s29, legacy.s29\ncontext.y!, legacy.v!, context.v?, legacy.y?\ncontext.s72, legacy.s72\ncontext.x!, legacy.v!, context.v?, legacy.x?\ncontext.s27, legacy.s27\ncontext.x!, legacy.x?\ncontext.s10, legacy.s10\ncontext.x!, legacy.u!, context.u?, legacy.x?\ncontext.s34, legacy.s34\ncontext.x!, legacy.v!, context.v?, legacy.x?\ncontext.s67, legacy.s67\nτ\ncontext.s17, legacy.s17\ncontext.y!, legacy.y?\ncontext.s21, legacy.s21\nτ\ncontext.s41, legacy.s41\nlegacy.u!, context.u?\ncontext.s43, legacy.s43\nτ\ncontext.s1, legacy.s1\ncontext.y!, legacy.u!, context.u?, legacy.y?\ncontext.s58, legacy.s58\nτ\ncontext.s33, legacy.s33\n"},
	{12, core.VerdictProven, core.ViolationNone, 33, 0, 37, 36, 31, 37, 74, 92, 0, ""},
	{13, core.VerdictProven, core.ViolationNone, 32, 0, 33, 24, 30, 33, 66, 116, 0, ""},
	{14, core.VerdictProven, core.ViolationNone, 20, 0, 20, 1, 18, 19, 41, 68, 0, ""},
	{15, core.VerdictProven, core.ViolationNone, 34, 0, 36, 29, 32, 36, 72, 76, 0, ""},
	{16, core.VerdictProven, core.ViolationNone, 32, 0, 37, 37, 30, 37, 74, 108, 0, ""},
	{17, core.VerdictViolation, core.ViolationDeadlock, 7, 0, 9, 7, 7, 9, 18, 24, 0, "context.s0, legacy.s0\ncontext.x!, legacy.v!, context.v?, legacy.x?\ncontext.s40, legacy.s40\ncontext.x!, legacy.v!, context.v?, legacy.x?\ncontext.s31, legacy.s31\ncontext.x!, legacy.x?\ncontext.s19, legacy.s19\nlegacy.u!, context.u?\ncontext.s22, legacy.s22\n"},
	{18, core.VerdictProven, core.ViolationNone, 17, 0, 18, 15, 15, 18, 36, 46, 0, ""},
	{19, core.VerdictProven, core.ViolationNone, 12, 0, 12, 9, 10, 12, 24, 44, 0, ""},
	{20, core.VerdictProven, core.ViolationNone, 7, 0, 8, 3, 5, 7, 17, 18, 0, ""},
	{21, core.VerdictProven, core.ViolationNone, 12, 0, 13, 10, 10, 13, 26, 26, 0, ""},
	{22, core.VerdictProven, core.ViolationNone, 25, 0, 25, 25, 23, 25, 50, 74, 0, ""},
	{23, core.VerdictViolation, core.ViolationDeadlock, 3, 0, 4, 3, 3, 3, 9, 40, 0, "context.s0, legacy.s0\ncontext.x!, legacy.x?\ncontext.s30, legacy.s30\ncontext.y!, legacy.y?\ncontext.s2, legacy.s2\n"},
}

// TestScenarioTrajectoriesPinned runs the pinned scenario machines, the
// deep learning loop of up to tens of iterations, and requires the recorded
// trajectories. The CheckIncremental pass verifies every build against a
// from-scratch ChaoticClosure and Compose.
func TestScenarioTrajectoriesPinned(t *testing.T) {
	for _, check := range []bool{false, true} {
		for _, want := range scenarioTrajectories {
			sc := pinnedScenario(want.seed)
			synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{CheckIncremental: check})
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			r, err := synth.Run()
			if err != nil {
				t.Fatalf("seed %d (check=%v): %v", want.seed, check, err)
			}
			if got := trajectoryOf(want.seed, r); got != want {
				t.Errorf("seed %d (check=%v):\n got %+v\nwant %+v", want.seed, check, got, want)
			}
		}
	}
}

// nondetTrajectory is the observable outcome of one synthesis run over a
// gen.NondetConfig instance on the nondeterministic (ioco) path.
type nondetTrajectory struct {
	seed                              int64
	verdict                           core.Verdict
	kind                              core.ViolationKind
	iterations, tests, probes, resets int
	states, transitions, refusals     int
	peakStates                        int
	witness                           string
}

// nondetTrajectories were recorded when the nondeterministic path rebuilt
// its closure and product from scratch every iteration. Seeds 1–30 are
// consecutive; the others run longer (up to 16 iterations), are the
// pinned mbt repros 142, 153 and 193, or spend a test's whole replay
// budget without reproducing the counterexample: on 147, 177 and 254 the
// test then diverges, and on 347 and 358 the loop probes the deadlock at
// the projection's learned final state. CTL effort is not pinned: a
// patched product keeps unreachable states a rebuild drops, and the
// checker's bitsets span them.
var nondetTrajectories = []nondetTrajectory{
	{1, core.VerdictViolation, core.ViolationConstraint, 2, 1, 9, 11, 1, 1, 5, 6, "ctx.c0, impl.s0\n"},
	{2, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 4, "ctx.c0, impl.s0\n"},
	{3, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, "ctx.c0, impl.s0\n"},
	{4, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, "ctx.c0, impl.s0\n"},
	{5, core.VerdictProven, core.ViolationNone, 9, 8, 1, 10, 0, 1, 2, 4, ""},
	{6, core.VerdictViolation, core.ViolationDeadlock, 3, 2, 24, 27, 1, 3, 6, 14, "ctx.c0, impl.s0\nimpl.o01!, ctx.o01?\nctx.c1, impl.s2\nτ\nctx.c2, impl.s2\nτ\nctx.c0, impl.s2\n"},
	{7, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, "ctx.c0, impl.s0\n"},
	{8, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, "ctx.c0, impl.s0\n"},
	{9, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 3, 0, 0, 3, 4, "ctx.c0, impl.s0\n"},
	{10, core.VerdictViolation, core.ViolationDeadlock, 3, 3, 9, 21, 2, 3, 3, 6, "ctx.c0, impl.s0\nτ\nctx.c0, impl.s3\n"},
	{11, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, "ctx.c0, impl.s0\n"},
	{12, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 3, 0, 0, 3, 6, "ctx.c0, impl.s0\n"},
	{13, core.VerdictViolation, core.ViolationDeadlock, 2, 1, 3, 5, 1, 3, 0, 18, "ctx.c0, impl.s0\nctx.i00!, impl.i00?\nctx.c2, impl.s2\n"},
	{14, core.VerdictViolation, core.ViolationDeadlock, 2, 1, 8, 10, 0, 1, 2, 4, "ctx.c0, impl.s0\n"},
	{15, core.VerdictProven, core.ViolationNone, 3, 3, 17, 21, 0, 3, 3, 4, ""},
	{16, core.VerdictViolation, core.ViolationDeadlock, 3, 2, 9, 12, 2, 2, 4, 6, "ctx.c0, impl.s0\nctx.i02!, impl.i02?\nctx.c0, impl.s1\n"},
	{17, core.VerdictViolation, core.ViolationDeadlock, 2, 1, 9, 11, 0, 1, 5, 6, "ctx.c0, impl.s0\n"},
	{18, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, "ctx.c0, impl.s0\n"},
	{19, core.VerdictViolation, core.ViolationDeadlock, 2, 2, 9, 12, 1, 2, 4, 12, "ctx.c0, impl.s0\nτ\nctx.c0, impl.s1\n"},
	{20, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 4, "ctx.c0, impl.s0\n"},
	{21, core.VerdictProven, core.ViolationNone, 8, 8, 19, 28, 0, 4, 5, 8, ""},
	{22, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 3, 0, 0, 3, 4, "ctx.c0, impl.s0\n"},
	{23, core.VerdictViolation, core.ViolationConstraint, 2, 1, 2, 4, 1, 2, 0, 12, "ctx.c0, impl.s0\nimpl.o00!, ctx.o00?\nctx.c1, impl.s0\n"},
	{24, core.VerdictViolation, core.ViolationDeadlock, 2, 1, 9, 11, 0, 2, 2, 10, "ctx.c0, impl.s0\nctx.i02!, impl.i02?\nctx.c1, impl.s0\n"},
	{25, core.VerdictViolation, core.ViolationDeadlock, 3, 4, 12, 22, 1, 6, 6, 6, "ctx.c0, impl.s0\nctx.i02!, impl.i02?\nctx.c0, impl.s1\n"},
	{26, core.VerdictViolation, core.ViolationConstraint, 2, 1, 9, 11, 1, 2, 2, 6, "ctx.c0, impl.s0\nτ\nctx.c0, impl.s1\n"},
	{27, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, "ctx.c0, impl.s0\n"},
	{28, core.VerdictViolation, core.ViolationDeadlock, 2, 1, 8, 10, 1, 1, 2, 10, "ctx.c0, impl.s0\n"},
	{29, core.VerdictViolation, core.ViolationDeadlock, 2, 2, 3, 7, 1, 2, 3, 14, "ctx.c0, impl.s0\nτ\nctx.c3, impl.s1\n"},
	{30, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 3, 0, 0, 3, 10, "ctx.c0, impl.s0\n"},
	{72, core.VerdictProven, core.ViolationNone, 6, 9, 1, 11, 0, 2, 1, 4, ""},
	{94, core.VerdictProven, core.ViolationNone, 16, 15, 2, 18, 0, 2, 4, 4, ""},
	{142, core.VerdictViolation, core.ViolationDeadlock, 5, 8, 5, 14, 1, 5, 4, 16, "ctx.c0, impl.s0\nctx.i00!, impl.o00!, ctx.o00?, impl.i00?\nctx.c2, impl.s_delta\n"},
	{147, core.VerdictProven, core.ViolationNone, 6, 55, 20, 98, 1, 7, 7, 18, ""},
	{153, core.VerdictProven, core.ViolationNone, 8, 25, 2, 29, 3, 5, 5, 6, ""},
	{162, core.VerdictProven, core.ViolationNone, 10, 12, 3, 16, 0, 3, 3, 8, ""},
	{177, core.VerdictProven, core.ViolationNone, 3, 49, 8, 58, 1, 2, 4, 16, ""},
	{193, core.VerdictProven, core.ViolationNone, 4, 9, 26, 50, 1, 7, 6, 6, ""},
	{224, core.VerdictProven, core.ViolationNone, 15, 26, 16, 50, 3, 8, 12, 8, ""},
	{254, core.VerdictProven, core.ViolationNone, 4, 50, 32, 83, 0, 4, 8, 16, ""},
	{264, core.VerdictViolation, core.ViolationDeadlock, 9, 9, 10, 20, 0, 2, 7, 16, "ctx.c0, impl.s0\nτ\nctx.c2, impl.s0\nτ\nctx.c1, impl.s0\n"},
	{320, core.VerdictViolation, core.ViolationConstraint, 9, 10, 19, 34, 2, 8, 4, 12, "ctx.c0, impl.s0\nctx.i02!, impl.o00!, ctx.o00?, impl.i02?\nctx.c1, impl.s1\nτ\nctx.c0, impl.s1\nctx.i02!, impl.o00!, ctx.o00?, impl.i02?\nctx.c1, impl.s2\n"},
	{347, core.VerdictViolation, core.ViolationDeadlock, 4, 52, 14, 87, 3, 10, 11, 16, "ctx.c0, impl.s0\nτ\nctx.c1, impl.s1\nctx.i02!, impl.i02?\nctx.c0, impl.s2\n"},
	{358, core.VerdictViolation, core.ViolationDeadlock, 6, 59, 18, 93, 1, 5, 5, 14, "ctx.c0, impl.s0\nimpl.o00!, ctx.o00?\nctx.c2, impl.s0\nτ\nctx.c1, impl.s1\nτ\nctx.c0, impl.s1\n"},
}

// TestNondetTrajectoriesPinned runs the pinned nondeterministic instances
// and requires the recorded trajectories, witness listings included. Their
// learned models are nondeterministic (automata.NewNondetIncomplete), and
// the loop patches their systems across iterations like any other
// single-component run, settled labels included: each run rebuilds once,
// at its initial build. The CheckIncremental pass verifies every build
// against a from-scratch ChaoticClosure and Compose.
func TestNondetTrajectoriesPinned(t *testing.T) {
	for _, check := range []bool{false, true} {
		patches := 0
		for _, want := range nondetTrajectories {
			inst, err := gen.New(want.seed, gen.NondetConfig())
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			comp, err := inst.Component()
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			synth, err := core.New(inst.Context, comp, inst.Interface(),
				core.Options{Property: inst.Property, Nondet: true, CheckIncremental: check})
			if err != nil {
				t.Fatalf("seed %d: %v", want.seed, err)
			}
			r, err := synth.Run()
			if err != nil {
				t.Fatalf("seed %d (check=%v): %v", want.seed, check, err)
			}
			st := r.Stats
			got := nondetTrajectory{want.seed, r.Verdict, r.Kind, st.Iterations, st.TestsRun, st.ProbesRun,
				st.ResetsUsed, st.StatesLearned, st.TransitionsLearned, st.RefusalsLearned,
				st.PeakSystemStates, r.WitnessText()}
			if got != want {
				t.Errorf("seed %d (check=%v):\n got %+v\nwant %+v", want.seed, check, got, want)
			}
			if st.ProductRebuilds != 1 || st.ProductPatches != st.Iterations-1 || r.Iterations[0].BuildReason != "initial-build" {
				t.Errorf("seed %d: %d rebuilds (first %q) and %d patches over %d iterations, want the initial build and %d patches",
					want.seed, st.ProductRebuilds, r.Iterations[0].BuildReason, st.ProductPatches, st.Iterations, st.Iterations-1)
			}
			patches += st.ProductPatches
		}
		if patches == 0 {
			t.Errorf("check=%v: no pinned nondeterministic run patched its system", check)
		}
	}
}

// TestNewRejectsAlphabetBeyondInterner checks that a system whose alphabet
// exceeds the interner's 128 signals is refused up front, with an error
// wrapping automata.ErrAlphabetTooWide, for one component and for several
// whose union is too wide.
func TestNewRejectsAlphabetBeyondInterner(t *testing.T) {
	signals := func(prefix string, n int) automata.SignalSet {
		var out []automata.Signal
		for i := 0; i < n; i++ {
			out = append(out, automata.Signal(fmt.Sprintf("%s%03d", prefix, i)))
		}
		return automata.NewSignalSet(out...)
	}
	single := func(name string, inputs, outputs automata.SignalSet) *automata.Automaton {
		a := automata.New(name, inputs, outputs)
		a.MarkInitial(a.MustAddState("s0"))
		return a
	}
	ctxAuto := single("ctx", signals("c", 65), automata.EmptySet)
	one := single("one", automata.EmptySet, signals("o", 64))
	if _, err := core.New(ctxAuto, legacy.MustWrapAutomaton(one),
		legacy.Interface{Name: "one", Outputs: one.Outputs()}, core.Options{}); !errors.Is(err, automata.ErrAlphabetTooWide) {
		t.Fatalf("core.New over 129 signals = %v, want ErrAlphabetTooWide", err)
	}
	a := single("a", automata.EmptySet, signals("a", 32))
	b := single("b", automata.EmptySet, signals("b", 32))
	_, err := core.NewMulti(ctxAuto, []legacy.Component{legacy.MustWrapAutomaton(a), legacy.MustWrapAutomaton(b)},
		[]legacy.Interface{{Name: "a", Outputs: a.Outputs()}, {Name: "b", Outputs: b.Outputs()}}, core.Options{})
	if !errors.Is(err, automata.ErrAlphabetTooWide) {
		t.Fatalf("core.NewMulti over 129 signals = %v, want ErrAlphabetTooWide", err)
	}
}
