package core_test

import (
	"errors"
	"fmt"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// wideTrajectory is the observable outcome of one synthesis run over a
// gen.WideConfig instance (a 70-signal alphabet).
type wideTrajectory struct {
	seed                              int64
	verdict                           core.Verdict
	kind                              core.ViolationKind
	iterations, tests, probes, resets int
	states, transitions, refusals     int
	peakStates                        int
	ctlWords                          int64
	witness                           string
}

// wideTrajectories were recorded when alphabets over 64 signals composed on
// a separate slice-based label path. Seeds 1–24 are consecutive and all end
// in their first iteration; the other five need a second one, so their
// product is delta-patched.
var wideTrajectories = []wideTrajectory{
	{1, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 1, 1, 61, 6, 4, "ctx.c0, impl.s0\n"},
	{2, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, 2, "ctx.c0, impl.s0\n"},
	{3, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 0, 62, 6, 0, "ctx.c0, impl.s0\n"},
	{4, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 1, 61, 4, 4, "ctx.c0, impl.s0\n"},
	{5, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 0, 62, 4, 4, "ctx.c0, impl.s0\n"},
	{6, core.VerdictViolation, core.ViolationConstraint, 1, 1, 3, 6, 0, 1, 92, 4, 5, "ctx.c0, impl.s0\n"},
	{7, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, 2, "ctx.c0, impl.s0\n"},
	{8, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, 2, "ctx.c0, impl.s0\n"},
	{9, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 4, 0, 0, 31, 4, 0, "ctx.c0, impl.s0\n"},
	{10, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 0, 62, 6, 4, "ctx.c0, impl.s0\n"},
	{11, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 4, 0, 0, 31, 4, 4, "ctx.c0, impl.s0\n"},
	{12, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 10, 2, "ctx.c0, impl.s0\n"},
	{13, core.VerdictViolation, core.ViolationConstraint, 1, 1, 1, 4, 0, 0, 31, 8, 7, "ctx.c0, impl.s0\n"},
	{14, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 6, 2, "ctx.c0, impl.s0\n"},
	{15, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 0, 62, 4, 0, "ctx.c0, impl.s0\n"},
	{16, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 0, 62, 4, 0, "ctx.c0, impl.s0\n"},
	{17, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 4, 0, 0, 31, 4, 3, "ctx.c0, impl.s0\n"},
	{18, core.VerdictViolation, core.ViolationConstraint, 1, 1, 1, 4, 0, 0, 31, 4, 7, "ctx.c0, impl.s0\n"},
	{19, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 1, 1, 61, 6, 5, "ctx.c0, impl.s0\n"},
	{20, core.VerdictViolation, core.ViolationConstraint, 1, 0, 0, 1, 0, 0, 0, 8, 4, "ctx.c0, impl.s0\n"},
	{21, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 2, 5, 0, 1, 61, 4, 4, "ctx.c0, impl.s0\n"},
	{22, core.VerdictViolation, core.ViolationConstraint, 1, 1, 1, 4, 0, 0, 31, 6, 6, "ctx.c0, impl.s0\n"},
	{23, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 4, 0, 0, 31, 4, 2, "ctx.c0, impl.s0\n"},
	{24, core.VerdictViolation, core.ViolationDeadlock, 1, 1, 1, 4, 0, 0, 31, 4, 2, "ctx.c0, impl.s0\n"},
	{348, core.VerdictViolation, core.ViolationDeadlock, 2, 2, 2, 7, 1, 1, 61, 6, 8, "ctx.c0, impl.s0\nτ\nctx.c0, impl.s1\n"},
	{391, core.VerdictProven, core.ViolationNone, 2, 1, 1, 4, 0, 1, 30, 4, 6, ""},
	{908, core.VerdictProven, core.ViolationNone, 2, 1, 2, 5, 0, 1, 61, 10, 4, ""},
	{1317, core.VerdictViolation, core.ViolationDeadlock, 2, 2, 3, 8, 0, 1, 61, 8, 0, "ctx.c0, impl.s0\nctx.i17!, impl.i17?\nctx.c1, impl.s0\n"},
	{1389, core.VerdictViolation, core.ViolationDeadlock, 2, 2, 6, 11, 1, 2, 184, 10, 0, "ctx.c0, impl.s0\nctx.i31!, impl.i31?\nctx.c0, impl.s1\n"},
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
			st := r.Stats
			got := wideTrajectory{want.seed, r.Verdict, r.Kind, st.Iterations, st.TestsRun, st.ProbesRun,
				st.ResetsUsed, st.StatesLearned, st.TransitionsLearned, st.RefusalsLearned,
				st.PeakSystemStates, st.CTLWordsScanned, r.WitnessText()}
			if got != want {
				t.Errorf("seed %d (check=%v):\n got %+v\nwant %+v", want.seed, check, got, want)
			}
			if st.ProductRebuilds != 1 || st.ProductPatches != st.Iterations-1 {
				t.Errorf("seed %d: %d rebuilds and %d patches over %d iterations, want 1 and %d",
					want.seed, st.ProductRebuilds, st.ProductPatches, st.Iterations, st.Iterations-1)
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
// consecutive; the others run longer (up to 16 iterations) or are the
// pinned mbt repros 142, 153 and 193. CTL effort is not pinned: a patched
// product keeps unreachable states a rebuild drops, and the checker's
// bitsets span them.
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
	{153, core.VerdictProven, core.ViolationNone, 8, 25, 2, 29, 3, 5, 5, 6, ""},
	{162, core.VerdictProven, core.ViolationNone, 10, 12, 3, 16, 0, 3, 3, 8, ""},
	{193, core.VerdictProven, core.ViolationNone, 4, 9, 26, 50, 1, 7, 6, 6, ""},
	{224, core.VerdictProven, core.ViolationNone, 15, 26, 16, 50, 3, 8, 12, 8, ""},
	{264, core.VerdictViolation, core.ViolationDeadlock, 9, 9, 10, 20, 0, 2, 7, 16, "ctx.c0, impl.s0\nτ\nctx.c2, impl.s0\nτ\nctx.c1, impl.s0\n"},
	{320, core.VerdictViolation, core.ViolationConstraint, 9, 10, 19, 34, 2, 8, 4, 12, "ctx.c0, impl.s0\nctx.i02!, impl.o00!, ctx.o00?, impl.i02?\nctx.c1, impl.s1\nτ\nctx.c0, impl.s1\nctx.i02!, impl.o00!, ctx.o00?, impl.i02?\nctx.c1, impl.s2\n"},
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
