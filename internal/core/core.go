// Package core implements the paper's primary contribution: the iterative
// behavior synthesis that combines compositional formal verification and
// counterexample-guided testing to decide whether one or more black-box
// legacy components integrate correctly into a Mechatronic UML context
// (Sections 3-5, and the multi-component extension of Section 7).
//
// Given an abstract context model M_a^c and a deterministic legacy
// implementation M_r with known structural interface, the loop maintains a
// series of incomplete automata M_l^i whose chaotic closures M_a^i =
// chaos(M_l^i) are safe abstractions of M_r (Theorem 1). With several
// legacy components the loop keeps one learned model per component and
// checks M_a^c ‖ chaos(M_1^i) ‖ … ‖ chaos(M_k^i). Each iteration:
//
//  1. model checks M_a^c ‖ M_a^i ⊨ φ ∧ ¬δ; success proves the property
//     for the real system M_r^c ‖ M_r (Lemma 5) — verdict Proven;
//  2. a constraint counterexample that never visits the chaotic states is
//     already a real run of the integrated system (Lemma 6) — verdict
//     Violation, without any test ("fast conflict detection", Fig. 6);
//  3. otherwise the counterexample is executed against the legacy
//     component using record/replay (Section 5); the enriched observation
//     is merged into M_l^{i+1} by learn (Definitions 11-12, Lemma 7), and
//     deadlock hypotheses at the end of the run are probed against the
//     context's offered interactions — all refused means the deadlock is
//     real (verdict Violation), otherwise the loop continues.
//
// Termination for finite deterministic components follows the argument of
// Theorem 2: every non-confirming test strictly grows the learned
// knowledge (states, transitions, or refusals).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"muml/internal/automata"
	"muml/internal/ctl"
	"muml/internal/legacy"
	"muml/internal/obs"
	"muml/internal/replay"
	"muml/internal/trace"
)

// Verdict is the outcome of the synthesis loop.
type Verdict int

// Verdicts.
const (
	// VerdictProven: the property and deadlock freedom hold for the
	// integrated system (Lemma 5).
	VerdictProven Verdict = iota + 1
	// VerdictViolation: a real counterexample of the integrated system
	// was found (Lemma 6) — never a false negative.
	VerdictViolation
)

func (v Verdict) String() string {
	switch v {
	case VerdictProven:
		return "proven"
	case VerdictViolation:
		return "violation"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// ViolationKind distinguishes what a violation witnesses.
type ViolationKind int

// Violation kinds.
const (
	// ViolationNone is reported with VerdictProven.
	ViolationNone ViolationKind = iota
	// ViolationConstraint: the property φ is violated by a real run.
	ViolationConstraint
	// ViolationDeadlock: the integrated system reaches a real deadlock.
	ViolationDeadlock
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationNone:
		return "none"
	case ViolationConstraint:
		return "constraint violation"
	case ViolationDeadlock:
		return "deadlock"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Options configure the synthesizer.
type Options struct {
	// Property is the constraint φ to establish (timed ACTL). May be nil
	// to check deadlock freedom only.
	Property ctl.Formula
	// Context, when non-nil, bounds the whole run: its deadline or
	// cancellation aborts long fixpoints inside the model checker and the
	// composition BFS promptly, and Run returns an error wrapping the
	// context's error (errors.Is-matchable against
	// context.DeadlineExceeded / context.Canceled). A nil or background
	// context leaves the run unbounded at zero overhead.
	Context context.Context
	// Memo, when non-nil, memoizes chaotic closures and compositions by
	// structural fingerprint, shared safely across concurrent synthesis
	// runs (see automata.MemoCache). Identical sub-problems — notably the
	// iteration-0 closure of instances sharing an initial model — are then
	// solved once per batch.
	Memo *automata.MemoCache
	// SkipDeadlockCheck disables the ¬δ check (not recommended; deadlock
	// freedom is what makes role invariants compositional, Section 2.4).
	SkipDeadlockCheck bool
	// Universe bounds the interactions considered possible for the legacy
	// component. Defaults to the singleton universe (at most one message
	// per direction per step), matching RTSC step semantics. NewMulti
	// enumerates it once per component.
	Universe automata.InteractionUniverse
	// MaxIterations bounds the loop (default 1000).
	MaxIterations int
	// CounterexampleBatch asks the model checker for up to this many
	// distinct counterexamples per verification round and tests them all
	// before re-verifying — the optimization named in the paper's
	// conclusion (§7). Default 1 (the paper's base algorithm).
	CounterexampleBatch int
	// PaperLiteralLearning restricts learning to the paper's Definitions
	// 11-12: only observed transitions and observed blockings are
	// recorded. By default the loop additionally exploits that the
	// implementation's reaction to an input is a function of the state
	// (Section 4.3 excludes any nondeterminism): observing (s, A, B)
	// refutes every (s, A, B') with B' ≠ B. Without that rule a chaos
	// hypothesis (s, A, B) whose real reaction B' is already known would
	// never be eliminated and the loop can cycle; enable this flag only
	// for the paper-literal ablation.
	PaperLiteralLearning bool
	// DisableIncremental forces a from-scratch chaotic closure and
	// composition every iteration instead of patching the previous
	// iteration's system (the pre-incremental behavior; kept for
	// benchmarking and as an escape hatch).
	DisableIncremental bool
	// CheckIncremental validates every incrementally patched system
	// against a from-scratch rebuild and fails the run on divergence.
	// Expensive; intended for differential tests.
	CheckIncremental bool
	// Journal receives the structured event stream of the run: one
	// iteration_start per round, the build decision (closure_patched or
	// product_rebuilt with its reason), check_result, and — when a
	// counterexample is tested — cex_classified, replay_step,
	// probe_result, and learn_delta, closed by a single verdict event.
	// Events carry causal identity: each iteration_start opens a span,
	// its round's events parent to it, and the test section of each
	// counterexample nests under the cex_classified span, so the journal
	// reconstructs as a span tree (DESIGN.md §10). Nil disables
	// journaling; every emission site is guarded so a disabled journal
	// costs one branch and no allocation.
	Journal *obs.Journal
	// TraceID names this run's trace in the journal; all events of the
	// run carry it. Defaults to the component interface's name (the
	// names joined by "+" for several components).
	TraceID string
	// Metrics, when non-nil, receives the run's span timers
	// (core.compose, core.check, core.replay, core.probe) and the bound
	// checker's ctl.* counters. Callers typically also pass the same
	// registry to automata.EnableObservability and
	// replay.EnableObservability.
	Metrics *obs.Registry
	// PhaseProfiling attaches pprof goroutine labels (phase=compose,
	// phase=check, phase=test) around the corresponding sections so CPU
	// profiles captured with obs.StartCPUProfile attribute samples to
	// loop phases.
	PhaseProfiling bool
	// Nondet switches counterexample classification to the ioco-based
	// nondeterministic path (DESIGN.md §13): replay follows the
	// component's actual behavior, divergent-but-allowed observations are
	// merged into the learned fragment (journaled as ioco_merge), and only
	// out-set escapes — outputs the fragment explicitly refutes, or
	// hypotheses missed across nondetCompleteness fair re-executions —
	// decide verdicts. Requires a single component with a fair branch
	// schedule (e.g. legacy.NondetComponent). Off by default; the
	// deterministic path is untouched when false.
	Nondet bool
}

// Budgets of the nondeterministic path (Options.Nondet).
const (
	// nondetAttempts bounds how many record/replay re-executions one
	// counterexample is given to reproduce the hypothesized run before the
	// iteration concludes with what it learned.
	nondetAttempts = 48
	// nondetCompleteness is the complete-testing budget: a hypothesized
	// output at a (state, input) is refuted only after this many fair
	// visits produced something else, and a deadlock offer is dismissed
	// only after this many accepted probes without the matching output. It
	// must exceed the component's branching degree per (state, input).
	nondetCompleteness = 8
)

func (o *Options) withDefaults(traceID string) Options {
	out := *o
	if out.Universe == nil {
		out.Universe = automata.Universe(automata.UniverseSingleton)
	}
	if out.MaxIterations == 0 {
		out.MaxIterations = 1000
	}
	if out.CounterexampleBatch < 1 {
		out.CounterexampleBatch = 1
	}
	if out.TraceID == "" {
		out.TraceID = traceID
	}
	return out
}

// QualifiedLabeler labels a state named "a::b" with the propositions
// "prefix.a" and "prefix.a::b", so that pattern constraints over composite
// states ("rearRole.convoy") hold in all substates, mirroring
// rtsc.WithStateLabels.
func QualifiedLabeler(prefix string) func(string) []automata.Proposition {
	return func(state string) []automata.Proposition {
		var props []automata.Proposition
		segments := strings.Split(state, "::")
		for i := range segments {
			props = append(props, automata.Proposition(prefix+"."+strings.Join(segments[:i+1], "::")))
		}
		return props
	}
}

// TestOutcome classifies what happened when a counterexample was executed
// against the legacy component.
type TestOutcome int

// Test outcomes.
const (
	// TestNotRun: the iteration needed no test (verification passed, or
	// the conflict was already decided inside learned behavior).
	TestNotRun TestOutcome = iota
	// TestDiverged: the implementation's observable behavior departed
	// from the hypothesized counterexample; the observation was learned.
	TestDiverged
	// TestConfirmedDeadlock: every interaction the context offers at the
	// end of the counterexample is refused or unmatched — the deadlock is
	// real.
	TestConfirmedDeadlock
	// TestRealizable: the counterexample trace was fully reproduced on
	// the implementation and witnesses the violation by itself; the
	// violation is confirmed.
	TestRealizable
)

func (t TestOutcome) String() string {
	switch t {
	case TestNotRun:
		return "not-run"
	case TestDiverged:
		return "diverged"
	case TestConfirmedDeadlock:
		return "confirmed-deadlock"
	case TestRealizable:
		return "realizable"
	default:
		return fmt.Sprintf("TestOutcome(%d)", int(t))
	}
}

// Iteration records one round of the loop for reporting and for
// regenerating the paper's listings.
type Iteration struct {
	Index int

	// Model sizes before this iteration's learning, summed over the
	// components.
	ModelStates, ModelTransitions, ModelBlocked int
	// ClosureStates and SystemStates measure the verification problem.
	ClosureStates, SystemStates int

	// PropertyHolds and DeadlockFree are the check outcomes.
	PropertyHolds, DeadlockFree bool

	// Counterexample of the failing check (nil when both hold).
	Counterexample *automata.Run
	// system is the composed system Counterexample runs over, from which
	// CounterexampleText renders the listing when it is read.
	system *automata.Automaton
	// CexInLearnedPart reports that the counterexample never visits
	// chaotic states.
	CexInLearnedPart bool
	// CexRunWitnessed reports that the counterexample run by itself proves
	// the violation (propositional violation at its end); see
	// ctl.Result.RunWitnessed.
	CexRunWitnessed bool

	Test TestOutcome
	// Recording and ReplayTrace document the test of the first component
	// (Listings 1.2/1.3).
	Recording   *replay.Recording
	ReplayTrace *replay.Trace
	// Probes document the deadlock confirmation attempts.
	Probes []replay.ProbeResult

	// Delta is what this iteration's learning added.
	Delta automata.LearnDelta

	// Patched reports that this iteration's system was produced by
	// patching the previous iteration's closure and product in place
	// (false on the first iteration and on rebuild fallbacks).
	Patched bool
	// BuildReason names why the system was patched or rebuilt
	// ("delta-patch", "initial-build", "garbage-threshold", ...); see
	// automata.IncrementalSystem.LastDecision.
	BuildReason string
	// Per-phase wall-clock durations of this iteration. TestDuration
	// covers the whole counterexample-execution section; ReplayDuration
	// (record + deterministic replay + learning) and ProbeDuration
	// (deadlock-confirmation probes) break out its two black-box parts.
	ComposeDuration, CheckDuration, TestDuration time.Duration
	ReplayDuration, ProbeDuration                time.Duration
}

// CounterexampleText renders the iteration's counterexample as a composed-
// run listing ("" when both checks held). It is rendered when read, and a
// later render is exact: the listing reads only the names and provenance of
// the run's product states, which never change once created —
// IncrementalSystem.Apply only appends product states and a rebuild
// allocates a new product.
func (it *Iteration) CounterexampleText() string {
	if it.Counterexample == nil {
		return ""
	}
	return trace.RenderCounterexample(it.system, it.Counterexample)
}

// Stats aggregates effort measures across the run.
type Stats struct {
	Iterations         int
	TestsRun           int
	ProbesRun          int
	ResetsUsed         int // component resets (≈ test executions incl. replays)
	StatesLearned      int
	TransitionsLearned int
	RefusalsLearned    int
	PeakSystemStates   int
	// CTLWordsScanned is the model-checking effort of the run: bitset
	// words produced by the checker's sweep and bounded operators,
	// deterministic for a given problem regardless of worker count or
	// memo warm-start (the cost ledger's effort figure, DESIGN.md §15).
	CTLWordsScanned int64

	// ProductPatches and ProductRebuilds count how each iteration's
	// verification system was obtained: by patching the previous
	// iteration's closure and product, or by building from scratch (the
	// first iteration always rebuilds).
	ProductPatches  int
	ProductRebuilds int
	// Cumulative wall-clock time per phase across all iterations.
	// TestTime covers the whole test phase; ReplayTime (record/replay
	// executions and learning) and ProbeTime (deadlock-confirmation
	// probes) split out the black-box effort the paper argues dominates
	// on real targets, so ReplayTime+ProbeTime ≤ TestTime.
	ComposeTime time.Duration
	CheckTime   time.Duration
	TestTime    time.Duration
	ReplayTime  time.Duration
	ProbeTime   time.Duration
}

// Report is the final result of a synthesis run.
type Report struct {
	Verdict    Verdict
	Kind       ViolationKind
	Property   ctl.Formula
	Iterations []Iteration
	// Witness is the real counterexample run over the final composed
	// system (for violations).
	Witness *automata.Run
	// WitnessSystem is the composed automaton the witness runs over.
	WitnessSystem *automata.Automaton
	// Model is the final learned incomplete automaton M_l^n (of the first
	// component; Models[0]).
	Model *automata.Incomplete
	// Models holds the final learned model of every component, in the
	// order the components were given to NewMulti.
	Models []*automata.Incomplete
	Stats  Stats
}

// WitnessText renders the witness over WitnessSystem ("" for a proof),
// exactly as it read at the verdict (see Iteration.CounterexampleText).
func (r *Report) WitnessText() string {
	if r.Witness == nil {
		return ""
	}
	return trace.RenderCounterexample(r.WitnessSystem, r.Witness)
}

// Synthesizer drives the iterative behavior synthesis for one or more
// legacy components in one context.
type Synthesizer struct {
	context *automata.Automaton
	comps   []*component
	// inputs and outputs are the union of the components' alphabets.
	inputs, outputs automata.SignalSet
	opts            Options

	stats Stats

	// inc carries the composed system across iterations; nil until the
	// first iteration, or permanently when unsupported/disabled (always for
	// several components, whose product is rebuilt every iteration).
	inc            *automata.IncrementalSystem
	incUnsupported bool
	// pending is the learn delta accumulated since the last system
	// construction, consumed by the next Apply.
	pending automata.LearnDelta

	// nondetVisits persists fair-visit counters per learned (state, input)
	// across iterations of the nondeterministic path (nil otherwise). The
	// component's round-robin schedule cycles every duplicate branch of a
	// (state, input) within branching-degree consecutive visits, so after
	// nondetCompleteness observed visits the out-set and successor set
	// there are complete: unobserved outputs become refusals and learned
	// labels become settled (chaos escapes removed).
	nondetVisits map[nondetVisitKey]*nondetVisit

	// checker is reused (rebound) across iterations so its predecessor
	// lists and fixpoint buffers amortize over the run.
	checker *ctl.Checker
	// weakProperty and noDeadlock are built once so the checker's
	// per-formula satisfaction cache is keyed by stable pointers.
	weakProperty ctl.Formula
	noDeadlock   ctl.Formula

	// Per-phase span timers and latency histograms registered in
	// Options.Metrics (nil and therefore inert when no registry is
	// configured). Timers carry totals; histograms carry the live
	// distribution the /metrics endpoint exposes as _bucket families.
	tCompose, tCheck, tReplay, tProbe *obs.Timer
	hCompose, hCheck, hReplay, hProbe *obs.Histogram
}

// component is one legacy component under synthesis: the black box, its
// structural interface, its learned incomplete automaton M_l^i, the
// labeler naming the propositions of learned states ("iface.state"), and
// the interaction universe over its alphabets, enumerated once.
type component struct {
	comp     legacy.Component
	iface    legacy.Interface
	model    *automata.Incomplete
	labeler  func(string) []automata.Proposition
	universe *automata.CompiledUniverse
	// rec and observed are the recording and observed run of the
	// counterexample under test; deadlock probes replay them as prefix.
	rec      replay.Recording
	observed automata.ObservedRun
}

// New prepares the synthesis for a single legacy component; it is NewMulti
// over one component.
func New(context *automata.Automaton, comp legacy.Component, iface legacy.Interface, opts Options) (*Synthesizer, error) {
	return NewMulti(context, []legacy.Component{comp}, []legacy.Interface{iface}, opts)
}

// NewMulti validates the inputs and prepares, per component, the initial
// model M_l^0 of Section 3: the single known initial state (determined by
// resetting the component and reading its probe) with empty T and T̄; its
// chaotic closure is the initial safe abstraction M_a^0 (Lemma 4, Fig. 4).
//
// Several components realize the extension of the paper's conclusion
// (Section 7): "the iterative synthesis will then improve all these models
// in parallel." The components must communicate only with the context
// (pairwise disjoint alphabets), which keeps deadlock-confirmation probes
// per component, and their names must differ from each other and from the
// context's leaves, because counterexamples are projected onto components
// by leaf name. Options.Nondet needs a single component.
func NewMulti(context *automata.Automaton, comps []legacy.Component, ifaces []legacy.Interface, opts Options) (*Synthesizer, error) {
	if context == nil || len(comps) == 0 {
		return nil, errors.New("core: context and component are required")
	}
	if len(comps) != len(ifaces) {
		return nil, fmt.Errorf("core: %d components but %d interfaces", len(comps), len(ifaces))
	}
	if err := context.Validate(); err != nil {
		return nil, fmt.Errorf("core: context: %w", err)
	}
	for i, iface := range ifaces {
		if comps[i] == nil {
			return nil, errors.New("core: context and component are required")
		}
		if err := iface.Validate(); err != nil {
			return nil, err
		}
		if !context.Inputs().Disjoint(iface.Inputs) || !context.Outputs().Disjoint(iface.Outputs) {
			return nil, fmt.Errorf("core: context and component alphabets must be composable (I∩I' = O∩O' = ∅)")
		}
		if _, _, clash := context.LeafAlphabet(iface.Name); clash {
			return nil, fmt.Errorf("core: component name %q clashes with a leaf of context %q; counterexamples are projected by leaf name",
				iface.Name, context.Name())
		}
		for _, prev := range ifaces[:i] {
			if prev.Name == iface.Name {
				return nil, fmt.Errorf("core: two components are named %q; counterexamples are projected by leaf name", iface.Name)
			}
			if !prev.Inputs.Union(prev.Outputs).Disjoint(iface.Inputs.Union(iface.Outputs)) {
				return nil, fmt.Errorf(
					"core: components %q and %q share signals; multi-component learning requires them to communicate only with the context",
					prev.Name, iface.Name)
			}
		}
	}
	if opts.Nondet && len(comps) > 1 {
		return nil, errors.New("core: Nondet needs a single component")
	}
	traceID := ifaces[0].Name
	for _, iface := range ifaces[1:] {
		traceID += "+" + iface.Name
	}
	o := opts.withDefaults(traceID)
	if o.Property != nil && !ctl.IsACTL(o.Property) {
		return nil, fmt.Errorf("core: property %s is not ACTL; only ACTL is compositional (Section 2.4)", o.Property)
	}

	s := &Synthesizer{context: context, opts: o}
	s.tCompose = o.Metrics.Timer("core.compose")
	s.tCheck = o.Metrics.Timer("core.check")
	s.tReplay = o.Metrics.Timer("core.replay")
	s.tProbe = o.Metrics.Timer("core.probe")
	s.hCompose = o.Metrics.Histogram("core.compose")
	s.hCheck = o.Metrics.Histogram("core.check")
	s.hReplay = o.Metrics.Histogram("core.replay")
	s.hProbe = o.Metrics.Histogram("core.probe")
	if o.Property != nil {
		s.weakProperty = ctl.WeakenForChaos(o.Property)
	}
	s.noDeadlock = ctl.NoDeadlock()
	// Delta patching maintains a binary product; several components
	// rebuild theirs from the memoized closures every iteration.
	s.incUnsupported = len(comps) > 1
	if o.Nondet {
		// Merged branches violate the single-successor invariant the
		// delta-patching machinery relies on; the nondet path always
		// rebuilds the closure and product from scratch.
		s.incUnsupported = true
		s.nondetVisits = make(map[nondetVisitKey]*nondetVisit)
	}
	for i, iface := range ifaces {
		c := &component{comp: comps[i], iface: iface, labeler: QualifiedLabeler(iface.Name),
			universe: automata.CompileUniverse(o.Universe, iface.Inputs, iface.Outputs)}
		init := legacy.InitialStateName(c.comp)
		s.stats.ResetsUsed++
		a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
		id := a.MustAddState(init, c.labeler(init)...)
		a.MarkInitial(id)
		c.model = automata.NewIncomplete(a)
		s.comps = append(s.comps, c)
		s.inputs = s.inputs.Union(iface.Inputs)
		s.outputs = s.outputs.Union(iface.Outputs)
	}
	return s, nil
}

// Model returns the current learned incomplete automaton M_l^i of the first
// component.
func (s *Synthesizer) Model() *automata.Incomplete { return s.comps[0].model }

// runCtx returns the run's bound context (Background when none was given).
func (s *Synthesizer) runCtx() context.Context {
	if s.opts.Context != nil {
		return s.opts.Context
	}
	return context.Background()
}

// Run executes iterations until a verdict is reached.
func (s *Synthesizer) Run() (*Report, error) {
	report := &Report{Property: s.opts.Property}
	noProgress := 0
	for i := 0; i < s.opts.MaxIterations; i++ {
		if err := s.runCtx().Err(); err != nil {
			return nil, fmt.Errorf("core: run aborted before iteration %d: %w", i, err)
		}
		it, done, err := s.step(i, report)
		if err != nil {
			return nil, err
		}
		report.Iterations = append(report.Iterations, *it)
		if done {
			for _, c := range s.comps {
				report.Models = append(report.Models, c.model)
			}
			report.Model = report.Models[0]
			s.stats.Iterations = len(report.Iterations)
			if s.checker != nil {
				s.stats.CTLWordsScanned = s.checker.WordsScanned()
			}
			report.Stats = s.stats
			return report, nil
		}
		if it.Delta.Empty() && it.Test != TestNotRun {
			// In nondeterministic mode an iteration may legitimately learn
			// nothing while its fair-visit counters mature toward the
			// completeness budget; the budget itself bounds how long that
			// can go on.
			noProgress++
			if !s.opts.Nondet || noProgress > nondetCompleteness {
				return nil, fmt.Errorf(
					"core: iteration %d made no progress (counterexample not confirmed, nothing learned); "+
						"disable PaperLiteralLearning or widen the universe", i)
			}
		} else {
			noProgress = 0
		}
	}
	return nil, fmt.Errorf("core: no verdict after %d iterations", s.opts.MaxIterations)
}

// step performs one iteration. It fills the report's verdict fields when
// done.
func (s *Synthesizer) step(index int, report *Report) (*Iteration, bool, error) {
	it := &Iteration{Index: index}
	for _, c := range s.comps {
		it.ModelStates += c.model.Automaton().NumStates()
		it.ModelTransitions += c.model.Automaton().NumTransitions()
		it.ModelBlocked += c.model.NumBlocked()
	}
	// iterSpan is the iteration's span: the round's events parent to it.
	var iterSpan uint64
	if j := s.opts.Journal; j.Enabled() {
		iterSpan = j.NewSpan()
		j.Emit(obs.Event{Kind: obs.KindIterationStart, Iter: index,
			Trace: s.opts.TraceID, Span: iterSpan,
			N: map[string]int64{
				"model_states":      int64(it.ModelStates),
				"model_transitions": int64(it.ModelTransitions),
				"model_blocked":     int64(it.ModelBlocked),
			}})
	}

	composeStart := time.Now()
	var sys *automata.Automaton
	if err := s.phase("compose", func() error {
		var err error
		sys, err = s.buildSystem(it)
		return err
	}); err != nil {
		return nil, false, err
	}
	book(time.Since(composeStart), &it.ComposeDuration, &s.stats.ComposeTime, s.tCompose, s.hCompose)
	if it.SystemStates > s.stats.PeakSystemStates {
		s.stats.PeakSystemStates = it.SystemStates
	}
	if j := s.opts.Journal; j.Enabled() {
		k := obs.KindProductRebuilt
		if it.Patched {
			k = obs.KindClosurePatched
		}
		j.Emit(obs.Event{Kind: k, Iter: index, DurNS: int64(it.ComposeDuration),
			Trace: s.opts.TraceID, Parent: iterSpan,
			N: map[string]int64{
				"closure_states": int64(it.ClosureStates),
				"system_states":  int64(it.SystemStates),
			}, S: map[string]string{"reason": it.BuildReason}})
	}

	checkStart := time.Now()
	var results []ctl.Result
	var kind ViolationKind
	if err := s.phase("check", func() error {
		if s.checker == nil {
			s.checker = ctl.NewChecker(sys)
			s.checker.Instrument(s.opts.Metrics)
		} else {
			s.checker.Rebind(sys)
		}
		checker := s.checker

		// Property check with chaos weakening (Section 2.7). With a
		// counterexample batch > 1 several distinct violations are tested
		// per round (the §7 optimization).
		it.PropertyHolds = true
		if s.weakProperty != nil {
			many, err := checker.CheckManyCtx(s.runCtx(), s.weakProperty, s.opts.CounterexampleBatch)
			if err != nil {
				return fmt.Errorf("core: check aborted: %w", err)
			}
			if !many[0].Holds {
				it.PropertyHolds = false
				results = many
				kind = ViolationConstraint
			}
		}
		// Deadlock freedom.
		it.DeadlockFree = true
		if results == nil && !s.opts.SkipDeadlockCheck {
			many, err := checker.CheckManyCtx(s.runCtx(), s.noDeadlock, s.opts.CounterexampleBatch)
			if err != nil {
				return fmt.Errorf("core: check aborted: %w", err)
			}
			if !many[0].Holds {
				it.DeadlockFree = false
				results = many
				kind = ViolationDeadlock
			}
		}
		return nil
	}); err != nil {
		return nil, false, err
	}
	book(time.Since(checkStart), &it.CheckDuration, &s.stats.CheckTime, s.tCheck, s.hCheck)
	if j := s.opts.Journal; j.Enabled() {
		j.Emit(obs.Event{Kind: obs.KindCheckResult, Iter: index, DurNS: int64(it.CheckDuration),
			Trace: s.opts.TraceID, Parent: iterSpan,
			N: map[string]int64{
				"property_holds":  b2i(it.PropertyHolds),
				"deadlock_free":   b2i(it.DeadlockFree),
				"system_states":   int64(sys.NumStates()),
				"counterexamples": int64(len(results)),
			}})
	}

	if results == nil {
		// Both checks passed: M_a^c ‖ M_a^i ⊨ φ ∧ ¬δ, hence the property
		// holds for the real integrated system (Lemma 5).
		report.Verdict = VerdictProven
		report.Kind = ViolationNone
		s.emitVerdict(index, iterSpan, VerdictProven, ViolationNone, "checks-passed")
		return it, true, nil
	}

	testStart := time.Now()
	defer func() {
		it.TestDuration = time.Since(testStart)
		s.stats.TestTime += it.TestDuration
	}()
	for idx, res := range results {
		cex := res.Counterexample
		if cex == nil {
			continue
		}
		if idx == 0 {
			it.Counterexample = cex
			it.system = sys
			it.CexInLearnedPart = runAvoidsChaos(sys, cex)
			it.CexRunWitnessed = res.RunWitnessed
		}
		// cexSpan scopes this counterexample's test section: the
		// replay_step and probe_result events nest under it.
		var cexSpan uint64
		if j := s.opts.Journal; j.Enabled() {
			cexSpan = j.NewSpan()
			j.Emit(obs.Event{Kind: obs.KindCexClassified, Iter: index,
				Trace: s.opts.TraceID, Span: cexSpan, Parent: iterSpan,
				N: map[string]int64{
					"batch_index":     int64(idx),
					"length":          int64(cex.Len()),
					"in_learned_part": b2i(runAvoidsChaos(sys, cex)),
					"run_witnessed":   b2i(res.RunWitnessed),
				}, S: map[string]string{"kind": kind.String(), "trace": trace.RenderCounterexample(sys, cex)}})
		}

		if kind == ViolationConstraint && runAvoidsChaos(sys, cex) && res.RunWitnessed {
			// Fast conflict detection: the violation lies entirely in
			// learned (= observed, real) behavior *and* is witnessed by
			// the run alone (a propositional violation), so it is a real
			// conflict without any further test (Listing 1.4). Temporal
			// violations — e.g. a bounded response failing because a
			// closed-copy state might refuse the continuation —
			// additionally rest on refusal hypotheses and are tested even
			// when no chaotic state is visited.
			it.Test = TestNotRun
			report.Verdict = VerdictViolation
			report.Kind = ViolationConstraint
			report.Witness = cex
			report.WitnessSystem = sys
			s.emitVerdict(index, iterSpan, VerdictViolation, ViolationConstraint, "fast-conflict")
			return it, true, nil
		}

		var confirmed bool
		if err := s.phase("test", func() error {
			var err error
			if s.opts.Nondet {
				confirmed, err = s.testCounterexampleNondet(sys, cex, kind, it, cexSpan)
			} else {
				confirmed, err = s.testCounterexample(sys, cex, kind, it, cexSpan)
			}
			return err
		}); err != nil {
			return nil, false, err
		}
		if confirmed {
			report.Verdict = VerdictViolation
			report.Kind = kind
			report.Witness = cex
			report.WitnessSystem = sys
			s.emitVerdict(index, iterSpan, VerdictViolation, kind, "test-confirmed")
			return it, true, nil
		}
	}
	if j := s.opts.Journal; j.Enabled() {
		j.Emit(obs.Event{Kind: obs.KindLearnDelta, Iter: index,
			Trace: s.opts.TraceID, Parent: iterSpan,
			N: map[string]int64{
				"states":      int64(it.Delta.States),
				"transitions": int64(it.Delta.Transitions),
				"blocked":     int64(it.Delta.Blocked),
			}})
	}
	s.pending.Merge(it.Delta)
	return it, false, nil
}

// phase runs f, attaching a pprof goroutine label when PhaseProfiling is
// enabled so CPU samples attribute to the loop phase they serve.
func (s *Synthesizer) phase(name string, f func() error) error {
	if s.opts.PhaseProfiling {
		return obs.WithPhase(name, f)
	}
	return f()
}

// book records one measured duration of a phase in its four sinks: the
// iteration's and the run's totals, and the phase's core.* timer and
// histogram.
func book(d time.Duration, iter, run *time.Duration, t *obs.Timer, h *obs.Histogram) {
	*iter += d
	*run += d
	t.Observe(d)
	h.Observe(d)
}

// replayed books one replay execution of component c that took d and
// journals it as a replay_step event under cexSpan; fill adds the
// execution's fields and runs only when a journal is attached.
func (s *Synthesizer) replayed(it *Iteration, c *component, d time.Duration, cexSpan uint64, tr *replay.Trace, fill func(n map[string]int64)) {
	book(d, &it.ReplayDuration, &s.stats.ReplayTime, s.tReplay, s.hReplay)
	if j := s.opts.Journal; j.Enabled() {
		e := obs.Event{Kind: obs.KindReplayStep, Iter: it.Index, DurNS: int64(d),
			Trace: s.opts.TraceID, Parent: cexSpan,
			N: map[string]int64{}, S: map[string]string{"trace": tr.Render()}}
		fill(e.N)
		s.tagComponent(e.S, c)
		j.Emit(e)
	}
}

// probed records one deadlock-confirmation probe of component c that took
// d in the iteration and Stats and journals it as a probe_result event
// under cexSpan. The probe section's total time is booked by probesDone.
func (s *Synthesizer) probed(it *Iteration, c *component, result replay.ProbeResult, d time.Duration, cexSpan uint64) {
	it.Probes = append(it.Probes, result)
	s.stats.ProbesRun++
	if j := s.opts.Journal; j.Enabled() {
		e := obs.Event{Kind: obs.KindProbeResult, Iter: it.Index, DurNS: int64(d),
			Trace: s.opts.TraceID, Parent: cexSpan,
			N: map[string]int64{
				"accepted": b2i(result.Accepted),
			}, S: map[string]string{
				"state":  result.State,
				"input":  result.Input.String(),
				"output": result.Output.String(),
				"after":  result.After,
			}}
		if s.opts.Nondet {
			e.N["quiescent"] = b2i(result.Quiescent)
		}
		s.tagComponent(e.S, c)
		j.Emit(e)
	}
}

// probesDone books the probe section of one counterexample test, begun at
// start.
func (s *Synthesizer) probesDone(it *Iteration, start time.Time) {
	book(time.Since(start), &it.ProbeDuration, &s.stats.ProbeTime, s.tProbe, s.hProbe)
}

// tagComponent names the component a journal event is about when there is
// more than one.
func (s *Synthesizer) tagComponent(fields map[string]string, c *component) {
	if len(s.comps) > 1 {
		fields["component"] = c.iface.Name
	}
}

func (s *Synthesizer) emitVerdict(index int, iterSpan uint64, v Verdict, kind ViolationKind, reason string) {
	if j := s.opts.Journal; j.Enabled() {
		j.Emit(obs.Event{Kind: obs.KindVerdict, Iter: index,
			Trace: s.opts.TraceID, Parent: iterSpan,
			S: map[string]string{
				"verdict": v.String(),
				"kind":    kind.String(),
				"reason":  reason,
			}})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// buildSystem produces this iteration's verification system M_a^c ‖
// chaos(M_1^i) ‖ … ‖ chaos(M_k^i) — for a single component incrementally
// patched from the previous iteration's system when possible, built from
// scratch otherwise — and fills the iteration's size fields.
func (s *Synthesizer) buildSystem(it *Iteration) (*automata.Automaton, error) {
	if !s.opts.DisableIncremental && !s.incUnsupported {
		if s.inc == nil {
			inc, err := automata.NewIncrementalSystemWith(s.runCtx(), s.context, s.comps[0].model, s.comps[0].universe, s.opts.Memo)
			switch {
			case errors.Is(err, automata.ErrIncrementalUnsupported):
				s.incUnsupported = true
			case err != nil:
				return nil, fmt.Errorf("core: compose: %w", err)
			default:
				s.inc = inc
				s.stats.ProductRebuilds++
			}
		} else {
			patched, err := s.inc.Apply(s.pending)
			if err != nil {
				return nil, fmt.Errorf("core: incremental compose: %w", err)
			}
			if patched {
				it.Patched = true
				s.stats.ProductPatches++
			} else {
				s.stats.ProductRebuilds++
			}
		}
		if s.inc != nil {
			_, it.BuildReason = s.inc.LastDecision()
			s.pending = automata.LearnDelta{}
			if s.opts.CheckIncremental {
				if err := s.inc.Verify(); err != nil {
					return nil, fmt.Errorf("core: incremental system diverged: %w", err)
				}
			}
			it.ClosureStates = s.inc.Closure().NumStates()
			// The patched product may hold unreachable retraction garbage;
			// report the size a from-scratch composition would have.
			it.SystemStates = s.inc.ReachableStates()
			return s.inc.System(), nil
		}
	}

	s.pending = automata.LearnDelta{}
	switch {
	case s.opts.Nondet:
		it.BuildReason = "nondet"
	case s.incUnsupported:
		it.BuildReason = "incremental-unsupported"
	default:
		it.BuildReason = "incremental-disabled"
	}
	parts := make([]*automata.Automaton, 1, 1+len(s.comps))
	parts[0] = s.context
	for _, c := range s.comps {
		var closure *automata.Automaton
		var err error
		if s.opts.Nondet {
			closure, err = automata.ChaoticClosureNondetCtx(s.runCtx(), c.model, c.universe)
		} else {
			closure, err = automata.ChaoticClosureCtx(s.runCtx(), c.model, c.universe, s.opts.Memo)
		}
		if err != nil {
			return nil, fmt.Errorf("core: closure: %w", err)
		}
		it.ClosureStates += closure.NumStates()
		parts = append(parts, closure)
	}
	var sys *automata.Automaton
	var err error
	if len(parts) == 2 {
		sys, err = automata.ComposeCtx(s.runCtx(), "system", parts[0], parts[1], s.opts.Memo)
	} else {
		// The n-ary product of Definition 3 (a fold of the binary one
		// would be wrong); it is neither memoized nor cancellable.
		sys, err = automata.ComposeAll("system", parts...)
	}
	if err != nil {
		return nil, fmt.Errorf("core: compose: %w", err)
	}
	it.SystemStates = sys.NumStates()
	s.stats.ProductRebuilds++
	return sys, nil
}

// testCounterexample executes the counterexample against every legacy
// component (Section 4.2 / Section 5) and learns from the observations.
// It reports whether the counterexample was confirmed as real. cexSpan is
// the journal span of the counterexample's cex_classified event; the
// replay and probe events nest under it.
func (s *Synthesizer) testCounterexample(sys *automata.Automaton, cex *automata.Run, kind ViolationKind, it *Iteration, cexSpan uint64) (bool, error) {
	diverged := false
	for i, c := range s.comps {
		proj, err := sys.ProjectRun(*cex, c.iface.Name)
		if err != nil {
			return false, fmt.Errorf("core: project counterexample: %w", err)
		}
		inputs := make([]automata.SignalSet, len(proj.Steps))
		for k, step := range proj.Steps {
			inputs[k] = step.In
		}

		// Record with minimal probes, then replay with full
		// instrumentation (Section 5).
		replayStart := time.Now()
		rec := replay.Record(c.comp, c.iface, inputs)
		s.stats.TestsRun++
		s.stats.ResetsUsed += 2
		tr, obsRun, err := replay.Replay(c.comp, rec)
		if err != nil {
			return false, fmt.Errorf("core: deterministic replay failed: %w", err)
		}
		if i == 0 {
			it.Recording = &rec
			it.ReplayTrace = &tr
		}
		if err := s.learnObservation(c, obsRun, it); err != nil {
			return false, err
		}
		s.replayed(it, c, time.Since(replayStart), cexSpan, &tr, func(n map[string]int64) {
			n["periods"] = int64(len(rec.Outputs))
			n["blocked_at"] = int64(rec.BlockedAt)
		})
		c.rec, c.observed = rec, obsRun

		// Divergence: blocked early, or outputs departing from the
		// counterexample's projection.
		if !rec.Completed() {
			diverged = true
		}
		for k := range rec.Outputs {
			if !rec.Outputs[k].Equal(proj.Steps[k].Out) {
				diverged = true
				break
			}
		}
	}
	if diverged {
		it.Test = TestDiverged
		return false, nil
	}

	final := cex.States[len(cex.States)-1]
	if kind != ViolationDeadlock && !sys.IsDeadlock(final) {
		// The full counterexample run is real behavior and it does not
		// depend on any refusal hypothesis (its violation window elapsed
		// within the trace): the violation is confirmed.
		it.Test = TestRealizable
		return true, nil
	}

	// The violation rests on the run being inextensible (a composed
	// deadlock — either the δ check itself, or a temporal violation whose
	// witness path stops early). Probe every interaction the context
	// offers at the end of the run: the stop is real iff no offer can
	// form a joint step with the implementations' deterministic reactions.
	return s.probeDeadlock(sys, cex, it, cexSpan)
}

// probeDeadlock checks whether the composed deadlock at the end of the
// counterexample is real. For each distinct share of an offer the context
// would hand to a component at its final state, the executor replays the
// component's prefix and performs one probe step (Section 5's replay makes
// the repeated re-execution deterministic); the reactions are learned.
func (s *Synthesizer) probeDeadlock(sys *automata.Automaton, cex *automata.Run, it *Iteration, cexSpan uint64) (bool, error) {
	defer s.probesDone(it, time.Now())
	ctxState, err := ContextStateAt(s.context, sys, cex.States[len(cex.States)-1])
	if err != nil {
		return false, err
	}

	type probeKey struct {
		comp int
		in   string
	}
	jointPossible := false
	cache := make(map[probeKey]replay.ProbeResult)
	for _, offer := range s.context.TransitionsFrom(ctxState) {
		// The offer is only realizable if everything the context sends
		// reaches some component.
		if !offer.Label.Out.SubsetOf(s.inputs) {
			continue
		}
		accepted := true
		out := automata.EmptySet
		for i, c := range s.comps {
			// The component's input under this offer is its share of what
			// the context sends (all of it for a single component).
			in := offer.Label.Out
			if len(s.comps) > 1 {
				in = in.Intersect(c.iface.Inputs)
			}
			key := probeKey{comp: i, in: in.Key()}
			result, ok := cache[key]
			if !ok {
				probeStart := time.Now()
				result, err = replay.Probe(c.comp, c.rec, in)
				probeDur := time.Since(probeStart)
				if err != nil {
					return false, fmt.Errorf("core: probe: %w", err)
				}
				cache[key] = result
				s.stats.ResetsUsed++
				s.probed(it, c, result, probeDur, cexSpan)
				if err := s.learnProbe(c, c.observed, result, finalState(c.observed), it); err != nil {
					return false, err
				}
			}
			if !result.Accepted {
				accepted = false
				break
			}
			out = out.Union(result.Output)
		}
		// Joint step condition of Definition 3: the context's expected
		// inputs from the components must equal their combined outputs.
		if accepted && offer.Label.In.Intersect(s.outputs).Equal(out) {
			jointPossible = true
		}
	}

	if jointPossible {
		it.Test = TestDiverged
		return false, nil
	}
	it.Test = TestConfirmedDeadlock
	return true, nil
}

// learnObservation merges a full observed run into c's model, including
// function-refusal expansion when enabled.
//
// Note: with a single component the Blocked branch is defensive —
// counterexample plans consist solely of already-learned steps (the
// chaos-weakened property is satisfied at s_∀, and (s,0) deadlocks precede
// s_δ ones in the shortest-counterexample search), so recordings never
// block mid-plan; refusal hypotheses are decided by the final-state probes
// instead. The branch matters with several components, where a
// counterexample runs on past one component's chaotic states while the
// others still move, and for callers feeding externally constructed plans.
func (s *Synthesizer) learnObservation(c *component, observed automata.ObservedRun, it *Iteration) error {
	// When the component blocked an input entirely, every output
	// hypothesis under that input is refuted.
	if observed.Blocked != nil && !s.opts.PaperLiteralLearning {
		blocked := observed.Blocked.In
		run := observed
		run.Blocked = nil
		delta, err := c.model.Learn(run, c.labeler)
		if err != nil {
			return fmt.Errorf("core: learn: %w", err)
		}
		s.accumulate(delta, it)
		return s.refuse(c, finalState(run), blocked, nil, false, it)
	}

	delta, err := c.model.Learn(observed, c.labeler)
	if err != nil {
		return fmt.Errorf("core: learn: %w", err)
	}
	s.accumulate(delta, it)

	if !s.opts.PaperLiteralLearning {
		// Each observed (state, A, B) refutes every (state, A, B') with
		// B' ≠ B.
		cur := observed.Initial
		for _, step := range observed.Steps {
			if err := s.refuse(c, cur, step.Label.In, &step.Label.Out, false, it); err != nil {
				return err
			}
			cur = step.To
		}
	}
	return nil
}

// learnProbe merges one probe reaction (prefix + one step) into c's model.
func (s *Synthesizer) learnProbe(c *component, prefix automata.ObservedRun, result replay.ProbeResult, finalState string, it *Iteration) error {
	if result.Accepted {
		run := prefix
		run.Blocked = nil
		run.Steps = append(append([]automata.ObservedStep(nil), prefix.Steps...), automata.ObservedStep{
			Label: automata.Interaction{In: result.Input, Out: result.Output},
			To:    result.After,
		})
		delta, err := c.model.Learn(run, c.labeler)
		if err != nil {
			return fmt.Errorf("core: learn probe: %w", err)
		}
		s.accumulate(delta, it)
		if !s.opts.PaperLiteralLearning {
			return s.refuse(c, finalState, result.Input, &result.Output, false, it)
		}
		return nil
	}
	if !s.opts.PaperLiteralLearning {
		return s.refuse(c, finalState, result.Input, nil, false, it)
	}
	// Paper-literal learning: record the single refused hypothesis (the
	// empty-output variant stands for the offered interaction).
	run := prefix
	blocked := automata.Interaction{In: result.Input}
	run.Blocked = &blocked
	delta, err := c.model.Learn(run, c.labeler)
	if err != nil {
		return fmt.Errorf("core: learn refusal: %w", err)
	}
	s.accumulate(delta, it)
	return nil
}

// refuse records, at the named learned state of c, refusals (T̄) of the
// universe interactions under input in that are neither learned nor
// already refused. With observed non-nil the component answered in with
// *observed, so only the other outputs are refuted; with observed nil it
// refused in entirely. settle additionally certifies the learned labels
// under in as successor-complete (the nondeterministic path's
// completeness rule), removing their chaos escapes from the next closure.
func (s *Synthesizer) refuse(c *component, state string, in automata.SignalSet, observed *automata.SignalSet, settle bool, it *Iteration) error {
	id := c.model.Automaton().State(state)
	if id == automata.NoState {
		return fmt.Errorf("core: unknown learned state %q", state)
	}
	for _, x := range c.universe.Under(in) {
		if observed != nil && x.Out.Equal(*observed) {
			continue
		}
		if len(c.model.Automaton().Successors(id, x)) > 0 {
			if settle && !c.model.IsSettled(id, x) {
				if err := c.model.SettleLabel(id, x); err != nil {
					return err
				}
				it.Delta.Settled++
			}
			continue
		}
		if c.model.IsBlocked(id, x) {
			continue
		}
		if err := c.model.Block(id, x); err != nil {
			return err
		}
		it.Delta.Blocked++
		it.Delta.NewBlocked = append(it.Delta.NewBlocked, automata.BlockedEntry{State: id, Label: x})
		s.stats.RefusalsLearned++
	}
	return nil
}

// finalState names the state an observed run ends in.
func finalState(run automata.ObservedRun) string {
	if n := len(run.Steps); n > 0 {
		return run.Steps[n-1].To
	}
	return run.Initial
}

// ContextStateAt resolves the context automaton's own state matching the
// context leaves of a composed system state. Exported for the model-based
// soundness oracle (internal/mbt), which independently re-derives the
// context's offers at the end of a violation witness to confirm a reported
// deadlock against the ground-truth component.
func ContextStateAt(context, sys *automata.Automaton, composed automata.StateID) (automata.StateID, error) {
	parts := sys.StateParts(composed)
	n := len(context.Leaves())
	if len(parts) < n {
		return automata.NoState, fmt.Errorf("core: composed state lacks context provenance")
	}
	id := context.StateByParts(parts[:n])
	if id == automata.NoState {
		return automata.NoState, fmt.Errorf("core: no context state with parts %v", parts[:n])
	}
	return id, nil
}

func (s *Synthesizer) accumulate(delta automata.LearnDelta, it *Iteration) {
	it.Delta.Merge(delta)
	s.stats.StatesLearned += delta.States
	s.stats.TransitionsLearned += delta.Transitions
	s.stats.RefusalsLearned += delta.Blocked
}

// runAvoidsChaos reports whether the run never visits a chaotic closure
// state.
func runAvoidsChaos(sys *automata.Automaton, r *automata.Run) bool {
	for _, st := range r.States {
		if automata.IsChaosState(sys, st) {
			return false
		}
	}
	return true
}
