package experiments

import (
	"fmt"
	"strings"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/legacy"
	"muml/internal/railcab"
	"muml/internal/replay"
	"muml/internal/trace"
)

func railcabSynth(comp legacy.Component) (*core.Synthesizer, error) {
	return core.New(railcab.FrontRole(), comp,
		railcab.RearInterface(railcab.RearRoleName),
		core.Options{Property: railcab.Constraint()})
}

// RunE1 reproduces Figs. 4(a) and 4(b): the trivial initial automaton
// holding only the known initial state, and its chaotic closure.
func RunE1() (*Result, error) {
	comp := &railcab.CorrectShuttle{}
	iface := railcab.RearInterface(railcab.RearRoleName)
	init := legacy.InitialStateName(comp)
	a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
	id := a.MustAddState(init)
	a.MarkInitial(id)
	model := automata.NewIncomplete(a)

	universe := automata.Universe(automata.UniverseSingleton)
	closure := automata.ChaoticClosure(model, universe)
	labels := len(universe.Enumerate(iface.Inputs, iface.Outputs))

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4(a) — trivial initial automaton M_l⁰:\n%s\n", trace.RenderModel(model))
	fmt.Fprintf(&b, "Fig. 4(b) — chaotic closure chaos(M_l⁰): %d states, %d transitions\n",
		closure.NumStates(), closure.NumTransitions())
	fmt.Fprintf(&b, "states: %s·0, %s·1, %s, %s\n", init, init, automata.ChaosAllState, automata.ChaosDeltaState)

	// Shape: 1 learned state; closure doubles it and adds the two chaotic
	// states; the open copy reaches chaos under every universe label; the
	// closed copy deadlocks; both copies are initial.
	match := a.NumStates() == 1 &&
		closure.NumStates() == 4 &&
		len(closure.Initial()) == 2 &&
		closure.IsDeadlock(closure.State(automata.ChaosDeltaState)) &&
		len(closure.TransitionsFrom(closure.State(init+automata.ChaosOpenSuffix))) == 2*labels &&
		closure.IsDeadlock(closure.State(init+automata.ChaosClosedSuffix))

	return &Result{
		ID:            "E1",
		Title:         "Initial behavior synthesis",
		PaperArtifact: "Figs. 4(a), 4(b)",
		Expectation:   "initial model = known initial state only; closure doubles states, adds s_all/s_delta, open copy reaches chaos on every interaction",
		Measured: fmt.Sprintf("model: 1 state; closure: %d states, %d transitions, %d initial",
			closure.NumStates(), closure.NumTransitions(), len(closure.Initial())),
		Match:   match,
		Details: b.String(),
	}, nil
}

// RunE2 reproduces Fig. 5: the known context behavior (the front role).
func RunE2() (*Result, error) {
	front := railcab.FrontRole()
	wantStates := []string{"noConvoy::default", "noConvoy::answer", "convoy::cruise", "convoy::break"}
	match := front.NumStates() == len(wantStates)
	for _, s := range wantStates {
		if front.State(s) == automata.NoState {
			match = false
		}
	}
	// Decision points are nondeterministic: answer offers both reject and
	// start, break offers both reject and accept.
	answer := front.State("noConvoy::answer")
	match = match && len(front.TransitionsFrom(answer)) == 2

	return &Result{
		ID:            "E2",
		Title:         "Context automaton",
		PaperArtifact: "Fig. 5",
		Expectation:   "front role with noConvoy/answer/convoy/break and nondeterministic accept-or-reject decisions",
		Measured: fmt.Sprintf("%d states, %d transitions; answer offers %d choices",
			front.NumStates(), front.NumTransitions(), len(front.TransitionsFrom(answer))),
		Match:   match,
		Details: front.Dot(),
	}, nil
}

// RunE3 reproduces Listing 1.1: the counterexample of the first
// verification round against the initial chaotic closure.
func RunE3() (*Result, error) {
	comp := &railcab.CorrectShuttle{}
	iface := railcab.RearInterface(railcab.RearRoleName)
	init := legacy.InitialStateName(comp)
	a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
	id := a.MustAddState(init, core.QualifiedLabeler(iface.Name)(init)...)
	a.MarkInitial(id)
	model := automata.NewIncomplete(a)

	closure := automata.ChaoticClosure(model, automata.Universe(automata.UniverseSingleton))
	sys, err := automata.Compose("system", railcab.FrontRole(), closure)
	if err != nil {
		return nil, err
	}
	checker := ctl.NewChecker(sys)
	prop := checker.Check(ctl.WeakenForChaos(railcab.Constraint()))
	dead := checker.Check(ctl.NoDeadlock())

	var b strings.Builder
	fmt.Fprintf(&b, "weakened constraint holds: %v (chaos cannot violate weakened literals)\n", prop.Holds)
	fmt.Fprintf(&b, "deadlock freedom holds: %v\n\n", dead.Holds)
	if dead.Counterexample != nil {
		fmt.Fprintf(&b, "Listing 1.1 analogue — first counterexample (shortest, BFS):\n%s",
			trace.RenderCounterexample(sys, dead.Counterexample))
	}
	b.WriteString("\nNote: the paper's checker returned a longer deadlock run ending in\n" +
		"s_delta after breakConvoyProposal; with shortest-counterexample search the\n" +
		"first deadlock hypothesis is the closed initial copy refusing everything.\n" +
		"Both are unconfirmed hypotheses that drive the same learning loop.\n")

	match := prop.Holds && !dead.Holds && dead.Counterexample != nil && dead.EndsInDeadlock
	return &Result{
		ID:            "E3",
		Title:         "Initial counterexample",
		PaperArtifact: "Listing 1.1",
		Expectation:   "first check fails with a deadlock counterexample into the chaotic closure; constraint itself not yet violated",
		Measured: fmt.Sprintf("constraint holds=%v, deadlock-free=%v, counterexample ends in deadlock=%v",
			prop.Holds, dead.Holds, dead.EndsInDeadlock),
		Match:   match,
		Details: b.String(),
	}, nil
}

// RunE4 reproduces Listings 1.2 and 1.3: minimal recording vs enriched
// deterministic replay, on the blocking shuttle.
func RunE4() (*Result, error) {
	s, err := railcabSynth(&railcab.BlockingShuttle{})
	if err != nil {
		return nil, err
	}
	report, err := s.Run()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	var minimalOnlyMessages, replayHasStates bool
	for _, it := range report.Iterations {
		if it.Recording == nil {
			continue
		}
		minimal := it.Recording.Minimal()
		if len(minimal.Events) == 0 {
			continue
		}
		minimalOnlyMessages = true
		for _, e := range minimal.Events {
			if e.Kind != replay.KindMessage {
				minimalOnlyMessages = false
			}
		}
		replayText := it.ReplayTrace().Render()
		replayHasStates = strings.Contains(replayText, "[CurrentState]") &&
			strings.Contains(replayText, "[Timing]")
		fmt.Fprintf(&b, "Listing 1.2 analogue — minimal events for deterministic replay (iteration %d):\n%s\n",
			it.Index, minimal.Render())
		fmt.Fprintf(&b, "Listing 1.3 analogue — replay with full instrumentation:\n%s\n", replayText)
		break
	}
	match := minimalOnlyMessages && replayHasStates &&
		report.Verdict == core.VerdictViolation && report.Kind == core.ViolationDeadlock

	return &Result{
		ID:            "E4",
		Title:         "Record/replay monitoring",
		PaperArtifact: "Listings 1.2, 1.3",
		Expectation:   "record phase captures only messages+periods; replay adds CurrentState and Timing probes; blocking legacy ends in a confirmed deadlock",
		Measured: fmt.Sprintf("minimal-only=%v, replay-enriched=%v, verdict=%v/%v",
			minimalOnlyMessages, replayHasStates, report.Verdict, report.Kind),
		Match:   match,
		Details: b.String(),
	}, nil
}

// RunE5 reproduces Fig. 6 and Listing 1.4: the eager shuttle's conflict is
// found inside learned behavior, without a confirming test.
func RunE5() (*Result, error) {
	s, err := railcabSynth(&railcab.EagerShuttle{})
	if err != nil {
		return nil, err
	}
	report, err := s.Run()
	if err != nil {
		return nil, err
	}
	last := report.Iterations[len(report.Iterations)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 analogue — synthesized behavior in conflict with the environment:\n%s\n",
		trace.RenderModel(report.Model))
	fmt.Fprintf(&b, "Listing 1.4 analogue — counterexample inside synthesized behavior:\n%s\n",
		report.WitnessText())
	fmt.Fprintf(&b, "iterations: %d, tests: %d (final iteration needed none)\n",
		report.Stats.Iterations, report.Stats.TestsRun)

	match := report.Verdict == core.VerdictViolation &&
		report.Kind == core.ViolationConstraint &&
		last.Test == core.TestNotRun &&
		last.CexInLearnedPart &&
		report.Stats.Iterations == 2

	return &Result{
		ID:            "E5",
		Title:         "Fast conflict detection",
		PaperArtifact: "Fig. 6, Listing 1.4",
		Expectation:   "violation lies entirely in learned behavior ⇒ real conflict proven without further testing, in the second round",
		Measured: fmt.Sprintf("verdict=%v/%v in %d iterations, final test=%v, in-learned-part=%v",
			report.Verdict, report.Kind, report.Stats.Iterations, last.Test, last.CexInLearnedPart),
		Match:   match,
		Details: b.String(),
	}, nil
}

// RunE6 reproduces Fig. 7 and Listing 1.5: the correct shuttle is proven
// correct after a few learning rounds, without learning irrelevant
// behavior.
func RunE6() (*Result, error) {
	s, err := railcabSynth(&railcab.CorrectShuttle{})
	if err != nil {
		return nil, err
	}
	report, err := s.Run()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 analogue — correct synthesized behavior w.r.t. context:\n%s\n",
		trace.RenderModel(report.Model))
	for _, it := range report.Iterations {
		if tr := it.ReplayTrace(); len(tr.Events) > 3 {
			fmt.Fprintf(&b, "Listing 1.5 analogue — monitoring of a successful learning step (iteration %d):\n%s\n",
				it.Index, tr.Render())
			break
		}
	}
	// The counts only: the phase times are wall-clock and would make every
	// regenerated report differ.
	st := report.Stats
	fmt.Fprintf(&b, "stats: {Iterations:%d TestsRun:%d TestsPredicted:%d ProbesRun:%d ResetsUsed:%d "+
		"StatesLearned:%d TransitionsLearned:%d RefusalsLearned:%d PeakSystemStates:%d "+
		"CTLWordsScanned:%d ProductPatches:%d ProductRebuilds:%d}\n",
		st.Iterations, st.TestsRun, st.TestsPredicted, st.ProbesRun, st.ResetsUsed,
		st.StatesLearned, st.TransitionsLearned, st.RefusalsLearned, st.PeakSystemStates,
		st.CTLWordsScanned, st.ProductPatches, st.ProductRebuilds)

	// Shape: proven; exactly the 4 protocol states learned; the
	// context-irrelevant idle transition of the wait state NOT learned.
	a := report.Model.Automaton()
	waitIdleLearned := false
	if wait := a.State("noConvoy::wait"); wait != automata.NoState {
		for _, tr := range a.TransitionsFrom(wait) {
			if tr.Label.In.IsEmpty() && tr.Label.Out.IsEmpty() {
				waitIdleLearned = true
			}
		}
	}
	match := report.Verdict == core.VerdictProven &&
		a.NumStates() == 4 &&
		!waitIdleLearned

	return &Result{
		ID:            "E6",
		Title:         "Successful learning to proof",
		PaperArtifact: "Fig. 7, Listing 1.5",
		Expectation:   "verdict proven; learned model covers the 4 protocol states but not context-irrelevant behavior (wait-state idling)",
		Measured: fmt.Sprintf("verdict=%v in %d iterations; model: %d states, %d transitions, %d refusals; wait idle learned=%v",
			report.Verdict, report.Stats.Iterations, a.NumStates(), a.NumTransitions(),
			report.Model.NumBlocked(), waitIdleLearned),
		Match:   match,
		Details: b.String(),
	}, nil
}

// RunE11 reproduces the pattern-level verification of Fig. 1, including
// the QoS connector finding.
func RunE11() (*Result, error) {
	var b strings.Builder

	sync, err := railcab.Pattern().Verify()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "synchronous DistanceCoordination pattern: satisfied=%v\n", sync.Satisfied)

	delayed, err := railcab.DelayedPattern(1, false)
	if err != nil {
		return nil, err
	}
	vd, err := delayed.Verify()
	if err != nil {
		return nil, err
	}
	delayedConstraintViolated := false
	for _, f := range vd.Failures {
		if f.Description == "pattern constraint" {
			delayedConstraintViolated = true
			fmt.Fprintf(&b, "\ndelayed pattern constraint violated (break-convoy delivery window):\n%s\n",
				f.Result.Explanation)
			if f.Result.Counterexample != nil {
				b.WriteString(trace.RenderCounterexample(vd.System, f.Result.Counterexample))
			}
		}
	}

	entry, err := railcab.DelayedEntryPattern(1)
	if err != nil {
		return nil, err
	}
	ve, err := entry.Verify()
	if err != nil {
		return nil, err
	}
	entryConstraintOK := true
	for _, f := range ve.Failures {
		if f.Description == "pattern constraint" {
			entryConstraintOK = false
		}
	}
	fmt.Fprintf(&b, "\nentry-phase pattern with delay-1 connector: constraint holds=%v\n", entryConstraintOK)

	match := sync.Satisfied && delayedConstraintViolated && entryConstraintOK
	return &Result{
		ID:            "E11",
		Title:         "Pattern verification incl. QoS connector",
		PaperArtifact: "Fig. 1 (pattern + constraint + role invariants), §2.2 (connector QoS)",
		Expectation:   "synchronous pattern verifies; explicit delay exposes the transient break-convoy mode mismatch; entry phase is delay-safe",
		Measured: fmt.Sprintf("sync=%v, delayed-break-violation=%v, delayed-entry-safe=%v",
			sync.Satisfied, delayedConstraintViolated, entryConstraintOK),
		Match:   match,
		Details: b.String(),
	}, nil
}

// RunE12 reproduces the physical safety argument: collision iff the mode
// combination forbidden by the pattern constraint.
func RunE12() (*Result, error) {
	rows := railcab.ModeTable(railcab.DefaultDynamics())
	var b strings.Builder
	match := true
	for _, row := range rows {
		fmt.Fprintf(&b, "%s\n", row)
		if row.Result.Collision != row.Forbidden {
			match = false
		}
	}
	return &Result{
		ID:            "E12",
		Title:         "Convoy kinematics vs. the constraint",
		PaperArtifact: "Application Example (rear-end collision argument)",
		Expectation:   "emergency braking collides exactly for rear=convoy ∧ front=noConvoy",
		Measured:      fmt.Sprintf("%d mode combinations simulated; collision ⇔ forbidden: %v", len(rows), match),
		Match:         match,
		Details:       b.String(),
	}, nil
}
