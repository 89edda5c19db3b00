// Package mbt is the model-based soundness harness for the synthesis loop:
// it runs the full core.Synthesizer against generated instances
// (internal/gen) and checks every verdict against the generator's ground
// truth, plus the algebraic laws the construction rests on.
//
// The checks encode the paper's guarantees directly:
//
//   - VerdictProven (Lemma 5): model checking the *true* composition
//     M_a^c ‖ M_r must confirm both the property and deadlock freedom.
//   - VerdictViolation (Lemma 6): the true composition must really violate
//     the claimed kind, and the reported witness must replay step-for-step
//     on the ground-truth component; a deadlock witness must additionally
//     end in a state where no context offer forms a joint step.
//   - Theorem 1: the explored ground truth refines the chaotic closure of
//     the learned model, which must be observation conforming.
//   - Refinement preorder laws: reflexivity, the chaotic automaton as
//     ⊑-top, and Simulates ⇒ Refines.
//   - Incremental-vs-rebuild equivalence: the delta-patched pipeline must
//     be observationally identical to the from-scratch one
//     (core.EquivalentReports).
//
// On failure, Shrink greedily minimizes the instance while the same check
// keeps failing, and WriteRepro stores it under testdata/ as a regression
// corpus replayed by the package tests.
package mbt

import (
	"context"
	"errors"
	"fmt"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/gen"
	"muml/internal/legacy"
	"muml/internal/obs"
)

// Check names reported in Failure.Check. Shrinking reproduces by exact
// check name, so these are part of the harness's stable surface.
const (
	CheckRunError               = "run-error"
	CheckProvenUnsound          = "proven-unsound"
	CheckViolationUnsound       = "violation-unsound"
	CheckWitnessMissing         = "witness-missing"
	CheckWitnessReplay          = "witness-replay"
	CheckWitnessDeadlock        = "witness-deadlock-unconfirmed"
	CheckLawChaosOverapprox     = "law-chaos-overapprox"
	CheckLawConformance         = "law-observation-conformance"
	CheckLawRefinesReflexive    = "law-refines-reflexive"
	CheckLawChaoticTop          = "law-chaotic-top"
	CheckLawSimulatesRefines    = "law-simulates-implies-refines"
	CheckLawIocoReflexive       = "law-ioco-reflexive"
	CheckLawRefinesIoco         = "law-refines-implies-ioco"
	CheckLawDeltaSaturation     = "law-delta-saturation-idempotent"
	CheckIncrementalEquivalence = "incremental-equivalence"
	// CheckCanceled is reported when Options.Context expired mid-run. It is
	// a scheduling outcome, not a soundness violation: callers running
	// under a deadline (cmd/mbt -deadline, the fuzz harness) detect it via
	// Failure.Canceled() and stop instead of reporting a failure.
	CheckCanceled = "canceled"
)

// Failure describes one soundness violation found on an instance.
type Failure struct {
	// Check is the stable name of the violated oracle check.
	Check string
	// Detail is a human-readable account of the violation.
	Detail string
	// Instance is the instance the check failed on (the original or, after
	// Shrink, a minimized one).
	Instance *gen.Instance
}

func (f *Failure) Error() string {
	return fmt.Sprintf("mbt: %s: %s (%s)", f.Check, f.Detail, f.Instance.Summary())
}

// Canceled reports whether the failure is a deadline/cancellation outcome
// rather than a soundness violation.
func (f *Failure) Canceled() bool { return f != nil && f.Check == CheckCanceled }

func fail(inst *gen.Instance, check, format string, args ...any) *Failure {
	return &Failure{Check: check, Detail: fmt.Sprintf(format, args...), Instance: inst}
}

// Options configure one oracle run.
type Options struct {
	// Journal, when non-nil, receives the synthesis loop's structured
	// event stream (passed through to core.Options.Journal).
	Journal *obs.Journal
	// Component overrides the component under test. By default the
	// ground-truth automaton is wrapped; tests of the harness itself
	// inject a component that deliberately diverges from the recorded
	// ground truth to prove the oracle catches it.
	Component legacy.Component
	// SkipLaws disables the algebraic-law checks, leaving only the
	// verdict-soundness oracles (for cheaper soak configurations).
	SkipLaws bool
	// Nondet forces the nondeterministic (ioco) synthesis path even for a
	// deterministic ground truth. Instances whose ground truth is
	// function-nondeterministic take that path regardless.
	Nondet bool
	// Context, when non-nil, bounds the oracle run: synthesis aborts when
	// it expires and CheckInstance returns a CheckCanceled failure.
	Context context.Context
}

// ctx returns the effective context (never nil).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// CheckInstance runs the full synthesis loop on the instance and checks
// every soundness property against the ground truth. It returns nil when
// all checks pass.
func CheckInstance(inst *gen.Instance, opts Options) *Failure {
	iface := inst.Interface()
	universe := automata.Universe(automata.UniverseSingleton)

	newComponent := func() (legacy.Component, error) {
		if opts.Component != nil {
			opts.Component.Reset()
			return opts.Component, nil
		}
		return inst.Component()
	}

	runOnce := func(coreOpts core.Options) (*core.Report, *Failure) {
		comp, err := newComponent()
		if err != nil {
			return nil, fail(inst, CheckRunError, "wrap component: %v", err)
		}
		coreOpts.Context = opts.Context
		synth, err := core.New(inst.Context, comp, iface, coreOpts)
		if err != nil {
			return nil, fail(inst, CheckRunError, "core.New: %v", err)
		}
		report, err := synth.Run()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return nil, fail(inst, CheckCanceled, "synthesis: %v", err)
			}
			return nil, fail(inst, CheckRunError, "synthesis: %v", err)
		}
		return report, nil
	}

	if err := opts.ctx().Err(); err != nil {
		return fail(inst, CheckCanceled, "%v", err)
	}
	useNondet := opts.Nondet || inst.Nondet()
	report, f := runOnce(core.Options{Property: inst.Property, Journal: opts.Journal, Nondet: useNondet})
	if f != nil {
		return f
	}

	// Ground truth: the real integrated system, model checked directly.
	truth, err := inst.Truth()
	if err != nil {
		return fail(inst, CheckRunError, "explore ground truth: %v", err)
	}
	sys, err := automata.Compose("truth", inst.Context, truth)
	if err != nil {
		return fail(inst, CheckRunError, "compose ground truth: %v", err)
	}
	checker := ctl.NewChecker(sys)
	propHolds := inst.Property == nil || checker.Holds(inst.Property)
	deadlockFree := checker.Holds(ctl.NoDeadlock())

	switch report.Verdict {
	case core.VerdictProven:
		if !propHolds || !deadlockFree {
			return fail(inst, CheckProvenUnsound,
				"verdict proven but ground truth has property=%v deadlock-free=%v", propHolds, deadlockFree)
		}
	case core.VerdictViolation:
		if propHolds && deadlockFree {
			return fail(inst, CheckViolationUnsound,
				"verdict violation (%v) but ground truth satisfies property and deadlock freedom", report.Kind)
		}
		switch report.Kind {
		case core.ViolationConstraint:
			if propHolds {
				return fail(inst, CheckViolationUnsound,
					"constraint violation reported but the property holds on the ground truth")
			}
		case core.ViolationDeadlock:
			if deadlockFree {
				return fail(inst, CheckViolationUnsound,
					"deadlock reported but the ground truth composition is deadlock free")
			}
		}
		if useNondet {
			if f := checkWitnessNondet(inst, report, sys); f != nil {
				return f
			}
		} else if f := checkWitness(inst, iface, report, newComponent); f != nil {
			return f
		}
	default:
		return fail(inst, CheckRunError, "unknown verdict %d", report.Verdict)
	}

	if !opts.SkipLaws {
		if f := checkLaws(inst, truth, report, universe, useNondet); f != nil {
			return f
		}
	}

	if useNondet {
		// The nondeterministic path always rebuilds from scratch (merged
		// branches defeat delta patching), so the incremental-equivalence
		// oracle degenerates to running the same pipeline twice.
		return nil
	}

	// Incremental-vs-rebuild equivalence: the delta-patched pipeline must
	// follow the exact same trajectory as a from-scratch rebuild.
	rebuilt, f := runOnce(core.Options{Property: inst.Property, DisableIncremental: true})
	if f != nil {
		return f
	}
	if err := core.EquivalentReports(report, rebuilt); err != nil {
		return fail(inst, CheckIncrementalEquivalence, "%v", err)
	}
	return nil
}

// checkWitnessNondet validates a violation witness against the *true
// composition* instead of replaying it on the component: replaying a
// specific path against a fairly-scheduled nondeterministic component
// would require aligning its schedule, so the witness's label sequence is
// walked as a state set over M_a^c ‖ M_r. A deadlock witness must be able
// to end in a real composed deadlock state.
func checkWitnessNondet(inst *gen.Instance, report *core.Report, sys *automata.Automaton) *Failure {
	if report.Witness == nil || report.WitnessSystem == nil {
		return fail(inst, CheckWitnessMissing, "violation verdict without witness run")
	}
	steps := report.Witness.Steps
	if report.Witness.Deadlock {
		// The final interaction of a deadlock run is the refused offer, not
		// an executed step.
		steps = steps[:len(steps)-1]
	}
	cur := make(map[automata.StateID]bool)
	for _, q := range sys.Initial() {
		cur[q] = true
	}
	for i, label := range steps {
		next := make(map[automata.StateID]bool)
		for s := range cur {
			for _, to := range sys.Successors(s, label) {
				next[to] = true
			}
		}
		if len(next) == 0 {
			return fail(inst, CheckWitnessReplay,
				"witness step %d (%s) is not executable in the true composition", i, label)
		}
		cur = next
	}
	if report.Kind != core.ViolationDeadlock {
		return nil
	}
	final := report.Witness.States[len(report.Witness.States)-1]
	if !report.WitnessSystem.IsDeadlock(final) {
		return nil
	}
	for s := range cur {
		if sys.IsDeadlock(s) {
			return nil
		}
	}
	return fail(inst, CheckWitnessDeadlock,
		"witness claims a deadlock but no resolution of its trace deadlocks the true composition")
}

// checkWitness validates a violation witness against the ground-truth
// component: every step must replay, and a witness ending in a composed
// deadlock must end in a state where no context offer can form a joint
// step with the component's deterministic reaction.
func checkWitness(inst *gen.Instance, iface legacy.Interface, report *core.Report, newComponent func() (legacy.Component, error)) *Failure {
	if report.Witness == nil || report.WitnessSystem == nil {
		return fail(inst, CheckWitnessMissing, "violation verdict without witness run")
	}
	proj, err := report.WitnessSystem.ProjectRun(*report.Witness, iface.Name)
	if err != nil {
		return fail(inst, CheckWitnessReplay, "project witness: %v", err)
	}

	replayPrefix := func(steps int) (legacy.Component, *Failure) {
		comp, err := newComponent()
		if err != nil {
			return nil, fail(inst, CheckRunError, "wrap component: %v", err)
		}
		comp.Reset()
		for i := 0; i < steps; i++ {
			out, ok := comp.Step(proj.Steps[i].In)
			if !ok {
				return nil, fail(inst, CheckWitnessReplay,
					"witness step %d refused by the implementation (input %v)", i, proj.Steps[i].In)
			}
			if !out.Equal(proj.Steps[i].Out) {
				return nil, fail(inst, CheckWitnessReplay,
					"witness step %d diverges: implementation produced %v, witness claims %v",
					i, out, proj.Steps[i].Out)
			}
		}
		return comp, nil
	}
	if _, f := replayPrefix(len(proj.Steps)); f != nil {
		return f
	}

	// Only a deadlock verdict claims the run is inextensible in the real
	// system; confirm no context offer forms a joint step there. (A
	// constraint witness may end in a state the *partial* learned system
	// considers deadlocked simply because learning stopped — that is not
	// a claim about the ground truth.)
	if report.Kind != core.ViolationDeadlock {
		return nil
	}
	final := report.Witness.States[len(report.Witness.States)-1]
	if !report.WitnessSystem.IsDeadlock(final) {
		return nil
	}
	ctxState, err := core.ContextStateAt(inst.Context, report.WitnessSystem, final)
	if err != nil {
		return fail(inst, CheckWitnessDeadlock, "resolve context state: %v", err)
	}
	for _, offer := range inst.Context.TransitionsFrom(ctxState) {
		if !offer.Label.Out.SubsetOf(iface.Inputs) {
			continue // the offer cannot reach the component
		}
		comp, f := replayPrefix(len(proj.Steps))
		if f != nil {
			return f
		}
		out, ok := comp.Step(offer.Label.Out)
		if ok && offer.Label.In.Intersect(iface.Outputs).Equal(out) {
			return fail(inst, CheckWitnessDeadlock,
				"witness claims a deadlock but context offer %v forms a joint step (implementation answered %v)",
				offer.Label, out)
		}
	}
	return nil
}

// checkLaws asserts the algebraic and metamorphic laws the construction
// rests on, over the explored ground truth and the final learned model.
// nondet selects the closure variant the loop actually used, so the
// over-approximation law exercises the settled-label machinery.
func checkLaws(inst *gen.Instance, truth *automata.Automaton, report *core.Report, universe automata.InteractionUniverse, nondet bool) *Failure {
	// Reflexivity of the refinement preorder.
	if ok, cex, err := automata.Refines(truth, truth); err != nil || !ok {
		return fail(inst, CheckLawRefinesReflexive, "truth ⊑ truth failed: cex=%v err=%v", cex, err)
	}
	// The chaotic automaton is ⊑-maximal: everything refines it.
	chaotic := automata.ChaoticAutomaton("chaos", truth.Inputs(), truth.Outputs(), universe)
	if ok, cex, err := automata.Refines(truth, chaotic); err != nil || !ok {
		return fail(inst, CheckLawChaoticTop, "truth ⊑ M_c failed: cex=%v err=%v", cex, err)
	}
	// Observation conformance of the final learned model (Definition 10)
	// and Theorem 1: M_r ⊑ chaos(M_l^n). For nondeterministic ground
	// truths the nondet closure must be used — the deterministic one
	// suppresses chaos escapes on learned-but-unsettled labels and is not
	// a safe abstraction there.
	if err := report.Model.ObservationConforming(truth); err != nil {
		return fail(inst, CheckLawConformance, "%v", err)
	}
	var closure *automata.Automaton
	if nondet {
		var err error
		m := report.Model.Automaton()
		closure, err = automata.ChaoticClosureNondetCtx(context.Background(), report.Model,
			automata.CompileUniverse(universe, m.Inputs(), m.Outputs()))
		if err != nil {
			return fail(inst, CheckRunError, "nondet closure: %v", err)
		}
	} else {
		closure = automata.ChaoticClosure(report.Model, universe)
	}
	if ok, cex, err := automata.Refines(truth, closure); err != nil || !ok {
		return fail(inst, CheckLawChaosOverapprox, "M_r ⊑ chaos(M_l) failed: cex=%v err=%v", cex, err)
	}
	// ioco is reflexive: every machine conforms to itself under
	// suspension-trace out-set inclusion.
	if ok, trace, err := automata.IocoRefines(truth, truth); err != nil || !ok {
		return fail(inst, CheckLawIocoReflexive, "truth ioco truth failed: trace=%v err=%v", trace, err)
	}
	// δ-saturation is idempotent: a second saturation finds every
	// quiescent state already carrying its δ self-loop.
	saturated, added := automata.SaturateQuiescence(truth, "truth·δ")
	if _, again := automata.SaturateQuiescence(saturated, "truth·δδ"); again != 0 {
		return fail(inst, CheckLawDeltaSaturation,
			"second saturation added %d loops (first added %d)", again, added)
	}
	// Refines ⇒ IocoRefines on deterministic machines: trace refinement
	// implies suspension-trace out-set inclusion when neither side races.
	// The learned fragment against the ground truth is the natural pair
	// that can genuinely fail either way.
	if la := report.Model.Automaton(); la.Deterministic() && truth.Deterministic() {
		if ok, _, err := automata.Refines(la, truth); err == nil && ok {
			if iok, trace, ierr := automata.IocoRefines(la, truth); ierr != nil || !iok {
				return fail(inst, CheckLawRefinesIoco,
					"Refines(M_l, M_r) holds but ioco fails: trace=%v err=%v", trace, ierr)
			}
		}
	}
	// Simulates is sound for ⊑ (Simulates ⇒ Refines). Exercise the
	// implication on a pair that genuinely can fail: the closure against
	// the ground truth — an over-approximation rarely refines its
	// implementation, so a Simulates acceptance here would expose an
	// unsound simulation check.
	if automata.Simulates(closure, truth) {
		if ok, _, err := automata.Refines(closure, truth); err == nil && !ok {
			return fail(inst, CheckLawSimulatesRefines, "Simulates(chaos(M_l), truth) accepted but Refines rejected")
		}
	}
	return nil
}
