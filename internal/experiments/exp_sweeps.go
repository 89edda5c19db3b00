package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"muml/internal/automata"
	"muml/internal/conformance"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/learning"
	"muml/internal/railcab"
)

// groundTruthVerdict model checks the composition of the scenario's
// context with the true legacy automaton.
func groundTruthVerdict(s *Scenario) (core.Verdict, error) {
	sys, err := automata.Compose("truth", s.Context, s.Legacy)
	if err != nil {
		return 0, err
	}
	if ctl.NewChecker(sys).Holds(ctl.NoDeadlock()) {
		return core.VerdictProven, nil
	}
	return core.VerdictViolation, nil
}

// RunE7 sweeps random scenarios of growing legacy size and measures how
// much of each component the loop had to learn to reach its verdict — the
// partial-learning claim of §4.4 / Theorem 2.
func RunE7() (*Result, error) {
	rng := rand.New(rand.NewSource(2007))
	sizes := []int{4, 8, 16, 32, 64}
	const perSize = 5

	var b strings.Builder
	b.WriteString("size | relevant | learnedStates | learnedFraction | iterations | tests+probes | verdict==truth\n")
	match := true
	totalFraction, rows := 0.0, 0
	for _, size := range sizes {
		for rep := 0; rep < perSize; rep++ {
			sc := GenerateScenario(rng, size, 2, 3)
			synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
			if err != nil {
				return nil, err
			}
			report, err := synth.Run()
			if err != nil {
				return nil, err
			}
			truth, err := groundTruthVerdict(sc)
			if err != nil {
				return nil, err
			}
			learned := report.Model.Automaton().NumStates()
			fraction := float64(learned) / float64(size)
			totalFraction += fraction
			rows++
			ok := report.Verdict == truth
			if !ok {
				match = false
			}
			// Theorem 2 shape: the learned model never exceeds the true
			// machine.
			if learned > size {
				match = false
			}
			// The component effort, as in E8: tests the learned model
			// predicts execute nothing, so the probes carry most of it.
			fmt.Fprintf(&b, "%4d | %8d | %13d | %15.2f | %10d | %12d | %v\n",
				size, sc.RelevantStates, learned, fraction, report.Stats.Iterations,
				report.Stats.TestsRun+report.Stats.ProbesRun, ok)
		}
	}
	avg := totalFraction / float64(rows)
	fmt.Fprintf(&b, "\naverage learned fraction: %.2f\n", avg)
	// Shape: on average much less than the whole component is learned.
	if avg >= 0.8 {
		match = false
	}
	return &Result{
		ID:            "E7",
		Title:         "Partial-learning scaling sweep",
		PaperArtifact: "§4.4 / Theorem 2: decide without learning the whole component",
		Expectation:   "verdicts always match ground truth; learned fraction well below 1 and shrinking with component size",
		Measured:      fmt.Sprintf("%d scenarios, avg learned fraction %.2f, all verdicts correct: %v", rows, avg, match),
		Match:         match,
		Details:       b.String(),
	}, nil
}

// RunE8 compares the paper's context-guided synthesis with L* regular
// inference on the same components (§6).
func RunE8() (*Result, error) {
	rng := rand.New(rand.NewSource(42))
	universe := automata.Universe(automata.UniverseSingleton)
	sizes := []int{4, 8, 16, 32}

	var b strings.Builder
	b.WriteString("size | synth tests+probes | synth equivalence | L* membership | L* equivalence | L*(W-method) membership\n")
	match := true
	for _, size := range sizes {
		sc := GenerateScenario(rng, size, 2, 3)

		synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
		if err != nil {
			return nil, err
		}
		report, err := synth.Run()
		if err != nil {
			return nil, err
		}
		synthTests := report.Stats.TestsRun + report.Stats.ProbesRun

		model, statsPerfect, err := learning.LearnComponent(
			sc.Component, sc.Iface, universe, learning.NewPerfectOracle(sc.Legacy), 256)
		if err != nil {
			return nil, err
		}

		// The W-method equivalence oracle is exponential in the gap
		// between the assumed bound and the hypothesis size; it is only
		// feasible for small components (that is the point of E9).
		wmColumn := "infeasible (Σ^l blowup)"
		var statsW learning.Stats
		if size <= 8 {
			oracle := learning.NewComponentOracle(sc.Component, &statsW)
			wm := learning.NewWMethodOracle(oracle, sc.Legacy.NumStates())
			learner := learning.NewLearner(oracle, conformance.InputAlphabet(sc.Legacy, universe), &statsW)
			if _, err := learner.Learn(wm, 256); err != nil {
				return nil, err
			}
			wmColumn = fmt.Sprintf("%d", statsW.MembershipQueries)
		}

		fmt.Fprintf(&b, "%4d | %18d | %17d | %13d | %14d | %23s\n",
			size, synthTests, 0, statsPerfect.MembershipQueries,
			statsPerfect.EquivalenceQueries, wmColumn)

		// Shapes: the synthesis needs no equivalence queries at all; L*
		// needs at least one; and for larger components the context-guided
		// tests undercut even perfect-oracle L* membership queries.
		if statsPerfect.EquivalenceQueries < 1 {
			match = false
		}
		if size >= 16 && synthTests >= statsPerfect.MembershipQueries {
			match = false
		}
		if size <= 8 && statsW.MembershipQueries < statsPerfect.MembershipQueries {
			match = false
		}
		_ = model
	}
	return &Result{
		ID:            "E8",
		Title:         "L* baseline comparison",
		PaperArtifact: "§6: no equivalence oracle needed; only context-relevant behavior learned",
		Expectation:   "synthesis: 0 equivalence queries, fewer tests than L* membership queries on larger components; W-method oracle multiplies L*'s cost",
		Measured:      "see table",
		Match:         match,
		Details:       b.String(),
	}, nil
}

// RunE9 measures the Vasilevskii/Chow suite growth (§6): exponential in
// the gap between the assumed implementation bound and the hypothesis
// size.
func RunE9() (*Result, error) {
	// The rear-role *protocol* automaton is nondeterministic (a role may
	// idle or act); conformance testing needs a function-deterministic
	// machine, so the hypothesis is the correct controller's explored
	// behavior.
	universe := automata.Universe(automata.UniverseSingleton)
	hyp := core.ExploreComponent(&railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName), universe, nil, 64)
	alphabet := conformance.InputAlphabet(hyp, universe)

	var b strings.Builder
	b.WriteString("assumed bound l | suite words | total symbols | growth vs previous\n")
	var prev int
	match := true
	n := hyp.NumStates()
	for gap := 0; gap <= 3; gap++ {
		bound := n + gap
		suite, err := conformance.Suite(hyp, alphabet, bound)
		if err != nil {
			return nil, err
		}
		c := conformance.Cost(suite)
		growth := 0.0
		if prev > 0 {
			growth = float64(c.TotalSymbols) / float64(prev)
		}
		fmt.Fprintf(&b, "%15d | %11d | %13d | %.1fx\n", bound, c.Words, c.TotalSymbols, growth)
		if prev > 0 {
			// Exponential shape: each extra state multiplies the suite by
			// roughly the alphabet size.
			if growth < 2 {
				match = false
			}
		}
		prev = c.TotalSymbols
	}
	fmt.Fprintf(&b, "\nalphabet size |Σ| = %d; Vasilevskii bound O(k²·l·|Σ|^(l−k+1))\n", len(alphabet))
	return &Result{
		ID:            "E9",
		Title:         "Vasilevskii/Chow suite growth",
		PaperArtifact: "§6: conformance-testing equivalence oracles are exponential in l−k",
		Expectation:   "suite size multiplies by ≈|Σ| per extra assumed implementation state",
		Measured:      "see table",
		Match:         match,
		Details:       b.String(),
	}, nil
}

// RunE10 fault-injects random scenarios and the RailCab trio, checking
// that the verdict always matches ground truth — the paper's "no false
// negatives, no false positives" claim.
func RunE10() (*Result, error) {
	rng := rand.New(rand.NewSource(10))
	var b strings.Builder
	total, correct := 0, 0

	check := func(name string, sc *Scenario) error {
		synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
		if err != nil {
			return err
		}
		report, err := synth.Run()
		if err != nil {
			return err
		}
		truth, err := groundTruthVerdict(sc)
		if err != nil {
			return err
		}
		total++
		ok := report.Verdict == truth
		if ok {
			correct++
		}
		fmt.Fprintf(&b, "%-22s verdict=%-9v truth=%-9v ok=%v\n", name, report.Verdict, truth, ok)
		return nil
	}

	for i := 0; i < 12; i++ {
		sc := GenerateScenario(rng, 6+rng.Intn(10), 2, 3)
		if err := check(fmt.Sprintf("random-%02d", i), sc); err != nil {
			return nil, err
		}
		mutated := MutateScenario(rng, sc)
		if err := check(fmt.Sprintf("random-%02d-mutated", i), mutated); err != nil {
			return nil, err
		}
	}

	// The RailCab trio against its ground truth.
	railcabCases := []struct {
		name string
		comp interface {
			Reset()
			Step(automata.SignalSet) (automata.SignalSet, bool)
		}
		want core.Verdict
	}{
		{"railcab-correct", &railcab.CorrectShuttle{}, core.VerdictProven},
		{"railcab-eager", &railcab.EagerShuttle{}, core.VerdictViolation},
		{"railcab-blocking", &railcab.BlockingShuttle{}, core.VerdictViolation},
	}
	for _, tc := range railcabCases {
		synth, err := railcabSynth(tc.comp)
		if err != nil {
			return nil, err
		}
		report, err := synth.Run()
		if err != nil {
			return nil, err
		}
		total++
		ok := report.Verdict == tc.want
		if ok {
			correct++
		}
		fmt.Fprintf(&b, "%-22s verdict=%-9v truth=%-9v ok=%v\n", tc.name, report.Verdict, tc.want, ok)
	}

	fmt.Fprintf(&b, "\n%d/%d verdicts match ground truth\n", correct, total)
	return &Result{
		ID:            "E10",
		Title:         "No false verdicts under fault injection",
		PaperArtifact: "§1/§4: pin-points real failures without false negatives; proofs are sound (Lemmas 5, 6)",
		Expectation:   "100% of verdicts match exhaustive ground-truth model checking",
		Measured:      fmt.Sprintf("%d/%d correct", correct, total),
		Match:         correct == total,
		Details:       b.String(),
	}, nil
}

// RunA1 is the paper-literal learning ablation: with only Definitions
// 11-12 (no function-refusal expansion) the loop can fail to make progress
// because refuted chaos hypotheses are never recorded as refusals.
func RunA1() (*Result, error) {
	synth, err := core.New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		core.Options{
			Property:             railcab.Constraint(),
			PaperLiteralLearning: true,
			MaxIterations:        60,
		})
	if err != nil {
		return nil, err
	}
	report, runErr := synth.Run()

	var measured string
	var match bool
	switch {
	case runErr != nil:
		// Expected: the loop stalls (the documented gap in the paper's
		// Definitions 11-12 for already-known reactions).
		measured = "loop stalls: " + runErr.Error()
		match = strings.Contains(runErr.Error(), "no progress") ||
			strings.Contains(runErr.Error(), "no verdict")
	default:
		measured = fmt.Sprintf("terminated with %v after %d iterations (blocked refusals still learned via probes)",
			report.Verdict, report.Stats.Iterations)
		match = report.Verdict == core.VerdictProven
	}
	return &Result{
		ID:            "A1",
		Title:         "Ablation: paper-literal learning",
		PaperArtifact: "Definitions 11-12",
		Expectation:   "without function-refusal expansion the loop either needs explicit blocking observations or stalls on refuted-but-unrecorded hypotheses",
		Measured:      measured,
		Match:         match,
		Details:       measured + "\n",
	}, nil
}

// RunA2 is the literal-Definition-9 ablation: with chaos transitions for
// *all* non-blocked interactions (including learned ones), s_δ stays
// reachable and the check φ ∧ ¬δ can never pass.
func RunA2() (*Result, error) {
	// Learn the full correct-shuttle model first (amended closure).
	synth, err := railcabSynth(&railcab.CorrectShuttle{})
	if err != nil {
		return nil, err
	}
	report, err := synth.Run()
	if err != nil {
		return nil, err
	}
	universe := automata.Universe(automata.UniverseSingleton)

	amended := automata.ChaoticClosure(report.Model, universe)
	sysAmended, err := automata.Compose("system", railcab.FrontRole(), amended)
	if err != nil {
		return nil, err
	}
	amendedOK := ctl.NewChecker(sysAmended).Holds(ctl.NoDeadlock())

	literal := automata.ChaoticClosureLiteral(report.Model, universe)
	sysLiteral, err := automata.Compose("system", railcab.FrontRole(), literal)
	if err != nil {
		return nil, err
	}
	literalOK := ctl.NewChecker(sysLiteral).Holds(ctl.NoDeadlock())

	details := fmt.Sprintf(
		"final learned model: %d states, %d transitions, %d refusals\n"+
			"amended closure (chaos only on unknown interactions): deadlock-free = %v\n"+
			"literal Definition 9 closure (chaos also on learned interactions): deadlock-free = %v\n"+
			"⇒ under the literal reading the success exit of §4.1 is unreachable;\n"+
			"  the paper's own worked example (Fig. 7, 'proof') requires the amended reading.\n",
		report.Model.Automaton().NumStates(), report.Model.Automaton().NumTransitions(),
		report.Model.NumBlocked(), amendedOK, literalOK)

	return &Result{
		ID:            "A2",
		Title:         "Ablation: literal Definition 9 closure",
		PaperArtifact: "Definition 9 vs. the termination claim of §4.4 and the Fig. 7 proof",
		Expectation:   "amended closure admits the proof; literal closure keeps s_δ reachable forever",
		Measured:      fmt.Sprintf("amended deadlock-free=%v, literal deadlock-free=%v", amendedOK, literalOK),
		Match:         amendedOK && !literalOK,
		Details:       details,
	}, nil
}

// RunA3 compares the singleton interaction universe against the full
// power-set universe of Definition 8 on the RailCab example.
func RunA3() (*Result, error) {
	run := func(kind automata.UniverseKind) (*core.Report, error) {
		synth, err := core.New(railcab.FrontRole(), &railcab.CorrectShuttle{},
			railcab.RearInterface(railcab.RearRoleName),
			core.Options{
				Property: railcab.Constraint(),
				Universe: automata.Universe(kind),
			})
		if err != nil {
			return nil, err
		}
		return synth.Run()
	}
	singleton, err := run(automata.UniverseSingleton)
	if err != nil {
		return nil, err
	}
	powerset, err := run(automata.UniversePowerSet)
	if err != nil {
		return nil, err
	}
	details := fmt.Sprintf(
		"universe   | verdict | iterations | peak |system| | refusals learned\n"+
			"singleton  | %-7v | %10d | %13d | %d\n"+
			"power set  | %-7v | %10d | %13d | %d\n",
		singleton.Verdict, singleton.Stats.Iterations, singleton.Stats.PeakSystemStates, singleton.Stats.RefusalsLearned,
		powerset.Verdict, powerset.Stats.Iterations, powerset.Stats.PeakSystemStates, powerset.Stats.RefusalsLearned)

	match := singleton.Verdict == core.VerdictProven &&
		powerset.Verdict == core.VerdictProven &&
		powerset.Stats.RefusalsLearned >= singleton.Stats.RefusalsLearned
	return &Result{
		ID:            "A3",
		Title:         "Ablation: power-set vs singleton interaction universe",
		PaperArtifact: "Definition 8 quantifies over ℘(I)×℘(O); RTSC steps carry at most one message per direction",
		Expectation:   "both universes prove the correct shuttle; the power set pays with a larger hypothesis space",
		Measured:      fmt.Sprintf("singleton=%v, powerset=%v", singleton.Verdict, powerset.Verdict),
		Match:         match,
		Details:       details,
	}, nil
}
