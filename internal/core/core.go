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
//     component using record/replay (Section 5) — unless the learned model
//     already predicts the component's part of it step for step — and the
//     enriched observation is merged into M_l^{i+1} by learn (Definitions
//     11-12, Lemma 7); deadlock hypotheses at the end of the run are
//     probed against the context's offered interactions — all refused
//     means the deadlock is real (verdict Violation), otherwise the loop
//     continues.
//
// Termination for finite deterministic components follows the argument of
// Theorem 2: every non-confirming test strictly grows the learned
// knowledge (states, transitions, or refusals).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Memo, when non-nil, memoizes chaotic closures by structural
	// fingerprint, shared safely across concurrent synthesis runs (see
	// automata.MemoCache). Identical sub-problems — notably the
	// iteration-0 closure of instances sharing an initial model — are then
	// solved once per batch.
	Memo *automata.MemoCache
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
	// iteration's system (the pre-incremental behavior). It is the
	// reference run of mbt's incremental-equivalence oracle, which
	// requires the patched run to follow the same trajectory, and is kept
	// for benchmarking and as an escape hatch.
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
	// reconstructs as a span tree (DESIGN.md §10). All events of the run
	// carry its trace ID, the component interface's name (the names
	// joined by "+" for several components). Nil disables journaling;
	// every emission site is guarded so a disabled journal costs one
	// branch and no allocation.
	Journal *obs.Journal
	// Metrics, when non-nil, receives a timer and a histogram per phase
	// (core.compose, core.check, core.replay, core.probe), which observe
	// the spans the iteration fields and journal events carry, and the
	// bound checker's ctl.* counters. Callers typically also pass the same
	// registry to automata.EnableObservability and
	// replay.EnableObservability.
	Metrics *obs.Registry
	// Nondet makes NewMulti create the learned model nondeterministic
	// (automata.NewNondetIncomplete), whose marker selects the ioco rules
	// of DESIGN.md §13 wherever the loop tests, probes, learns and closes
	// it: replay follows the component's actual behavior,
	// divergent-but-allowed observations are merged into the learned
	// fragment (journaled as ioco_merge), and only out-set escapes —
	// outputs the fragment explicitly refutes, or hypotheses missed across
	// nondetCompleteness fair re-executions — decide verdicts. The system
	// is patched across iterations as for a deterministic model, a settled
	// label like any other learn delta. Requires a single component with a
	// fair branch schedule (e.g. legacy.NondetComponent). Off by default.
	Nondet bool
}

// Budgets of a nondeterministic model's tests and probes (Options.Nondet).
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

func (o *Options) withDefaults() Options {
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
	// Recording documents the test of the first component (Listing 1.2),
	// derived from the learned model when the model predicted the test;
	// ReplayTrace renders its instrumented replay (Listing 1.3).
	Recording *replay.Recording
	// replayed is the first component's observed run of that test, from
	// which ReplayTrace renders; nondet marks a run of a nondeterministic
	// model, whose rendering shows quiescence.
	replayed *automata.ObservedRun
	nondet   bool
	// TestsPredicted counts the component tests of this iteration that the
	// learned model predicted instead of executing (see testComponent).
	TestsPredicted int
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
	// Per-phase wall-clock durations of this iteration, each summing the
	// phase's spans: TestDuration one per counterexample tested against
	// the components, ReplayDuration (record, replay and learning) one per
	// execution and ProbeDuration (a deadlock-confirmation probe and its
	// learning) one per probe, both nested in the test spans.
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

// ReplayTrace renders the instrumented replay of the first component's test
// (Listing 1.3; no events when the iteration tested nothing). Like
// CounterexampleText it is rendered when read, from the observed run.
func (it *Iteration) ReplayTrace() replay.Trace {
	if it.replayed == nil {
		return replay.Trace{}
	}
	return replay.ReplayTrace(it.Recording.Iface, *it.replayed, it.nondet)
}

// Stats aggregates effort measures across the run. Run sums it from the
// report's iterations (sumStats); only TestsRun, ResetsUsed and
// CTLWordsScanned, which no iteration records, are counted directly.
type Stats struct {
	Iterations int
	// TestsRun counts the record/replay executions on the components;
	// TestsPredicted the component tests the learned models predicted
	// instead.
	TestsRun       int
	TestsPredicted int
	ProbesRun      int
	// ResetsUsed counts the resets the components saw: the initial-state
	// read, one per record and per replay, and one per probe that could
	// not step on from where its component stood (replay.Probe).
	ResetsUsed         int
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
	// TestTime covers the counterexample tests; ReplayTime (record/replay
	// executions and learning) and ProbeTime (deadlock-confirmation
	// probes and learning) split out the black-box effort the paper
	// argues dominates on real targets, so ReplayTime+ProbeTime ≤ TestTime.
	ComposeTime time.Duration
	CheckTime   time.Duration
	TestTime    time.Duration
	ReplayTime  time.Duration
	ProbeTime   time.Duration
}

// sumStats derives a run's Stats from its iterations: every field but
// TestsRun, ResetsUsed and CTLWordsScanned.
func sumStats(its []Iteration) Stats {
	st := Stats{Iterations: len(its)}
	for _, it := range its {
		st.TestsPredicted += it.TestsPredicted
		st.ProbesRun += len(it.Probes)
		st.StatesLearned += len(it.Delta.NewStates)
		st.TransitionsLearned += len(it.Delta.NewTransitions)
		st.RefusalsLearned += len(it.Delta.NewBlocked)
		st.PeakSystemStates = max(st.PeakSystemStates, it.SystemStates)
		if it.Patched {
			st.ProductPatches++
		} else {
			st.ProductRebuilds++
		}
		st.ComposeTime += it.ComposeDuration
		st.CheckTime += it.CheckDuration
		st.TestTime += it.TestDuration
		st.ReplayTime += it.ReplayDuration
		st.ProbeTime += it.ProbeDuration
	}
	return st
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
	// traceID names the run's trace in the journal (see Options.Journal).
	traceID string

	testsRun int // the Stats count no iteration records (see also component.comp)

	// inc carries the composed system across iterations; nil until the
	// first iteration, or permanently when unsupported (several components,
	// whose product is rebuilt every iteration) or disabled.
	inc            *automata.IncrementalSystem
	incUnsupported bool

	// checker is reused (rebound) across iterations so its predecessor
	// lists and fixpoint buffers amortize over the run.
	checker *ctl.Checker
	// weakProperty and noDeadlock are built once so the checker's
	// per-formula satisfaction cache is keyed by stable pointers.
	weakProperty ctl.Formula
	noDeadlock   ctl.Formula

	// timers and hists are the phases' core.* instruments in
	// Options.Metrics (nil, and so inert, without a registry and for the
	// test phase).
	timers [numPhases]*obs.Timer
	hists  [numPhases]*obs.Histogram
}

// component is one legacy component under synthesis: the black box, its
// structural interface, its learned incomplete automaton M_l^i, the
// labeler naming the propositions of learned states ("iface.state"), and
// the interaction universe over its alphabets, enumerated once.
type component struct {
	// comp is the black box, tracked so that a probe steps on from where
	// it stands when it can (replay.Tracked); it counts the resets.
	comp     *replay.Tracked
	iface    legacy.Interface
	model    *automata.Incomplete
	labeler  func(string) []automata.Proposition
	universe *automata.CompiledUniverse
	// rec is the recording of the component's part of the counterexample
	// under test, which deadlock probes replay as prefix, and final the
	// learned state where they ask for the component's share of the
	// context's offers ("" when it cannot be probed; see testComponent).
	rec   replay.Recording
	final string
	// visits counts the fair visits of a nondeterministic model's learned
	// (state, input) pairs across iterations (see countVisits); nil until
	// the first is counted.
	visits map[nondetVisitKey]*nondetVisit
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
// by leaf name. Options.Nondet needs a single component: the chaos-free
// certification of a nondeterministic model reads the closure's copy
// suffix off the last factor of a product state (openCopyDeadlocked).
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
	o := opts.withDefaults()
	if o.Property != nil && !ctl.IsACTL(o.Property) {
		return nil, fmt.Errorf("core: property %s is not ACTL; only ACTL is compositional (Section 2.4)", o.Property)
	}

	s := &Synthesizer{context: context, opts: o, traceID: traceID}
	for p, name := range phaseNames {
		if phaseID(p) != phaseTest {
			s.timers[p] = o.Metrics.Timer("core." + name)
			s.hists[p] = o.Metrics.Histogram("core." + name)
		}
	}
	if o.Property != nil {
		s.weakProperty = ctl.WeakenForChaos(o.Property)
	}
	s.noDeadlock = ctl.NoDeadlock()
	// Delta patching maintains a binary product; with several components
	// the product is rebuilt from every model's closure each iteration.
	s.incUnsupported = len(comps) > 1
	for i, iface := range ifaces {
		c := &component{comp: replay.Track(comps[i]), iface: iface, labeler: QualifiedLabeler(iface.Name),
			universe: o.Memo.Universe(o.Universe, iface.Inputs, iface.Outputs)}
		init := legacy.InitialStateName(c.comp)
		a := automata.New(iface.Name, iface.Inputs, iface.Outputs)
		id := a.MustAddState(init, c.labeler(init)...)
		a.MarkInitial(id)
		if o.Nondet {
			c.model = automata.NewNondetIncomplete(a)
		} else {
			c.model = automata.NewIncomplete(a)
		}
		s.comps = append(s.comps, c)
		s.inputs = s.inputs.Union(iface.Inputs)
		s.outputs = s.outputs.Union(iface.Outputs)
	}
	// Every construction of the loop interns the system's labels; an
	// alphabet too wide for that fails here rather than mid-run.
	if err := automata.CheckAlphabetWidth(context.Inputs(), context.Outputs(), s.inputs, s.outputs); err != nil {
		return nil, fmt.Errorf("core: %w", err)
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
			report.Stats = sumStats(report.Iterations)
			report.Stats.TestsRun = s.testsRun
			for _, c := range s.comps {
				report.Stats.ResetsUsed += c.comp.Resets()
			}
			if s.checker != nil {
				report.Stats.CTLWordsScanned = s.checker.WordsScanned()
			}
			return report, nil
		}
		if it.Delta.Empty() && it.Test != TestNotRun {
			// A nondeterministic model may legitimately learn nothing in an
			// iteration while its fair-visit counters mature toward the
			// completeness budget; the budget itself bounds how long that
			// can go on.
			noProgress++
			if !s.comps[0].model.Nondet() || noProgress > nondetCompleteness {
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
			Trace: s.traceID, Span: iterSpan,
			N: map[string]int64{
				"model_states":      int64(it.ModelStates),
				"model_transitions": int64(it.ModelTransitions),
				"model_blocked":     int64(it.ModelBlocked),
			}})
	}

	var sys *automata.Automaton
	if err := s.phase(it, phaseCompose, func() error {
		var err error
		sys, err = s.buildSystem(it, report.Iterations)
		return err
	}, func() obs.Event {
		k := obs.KindProductRebuilt
		if it.Patched {
			k = obs.KindClosurePatched
		}
		return obs.Event{Kind: k, Parent: iterSpan,
			N: map[string]int64{
				"closure_states": int64(it.ClosureStates),
				"system_states":  int64(it.SystemStates),
			}, S: map[string]string{"reason": it.BuildReason}}
	}); err != nil {
		return nil, false, err
	}

	var results []ctl.Result
	var kind ViolationKind
	if err := s.phase(it, phaseCheck, func() error {
		if s.checker == nil {
			s.checker = ctl.NewChecker(sys)
			s.checker.Instrument(s.opts.Metrics)
		} else {
			s.checker.Rebind(sys)
		}

		// Property check with chaos weakening (Section 2.7). With a
		// counterexample batch > 1 several distinct violations are tested
		// per round (the §7 optimization).
		it.PropertyHolds = true
		if s.weakProperty != nil {
			many, err := s.checker.CheckManyCtx(s.runCtx(), s.weakProperty, s.opts.CounterexampleBatch)
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
		if results == nil {
			many, err := s.checker.CheckManyCtx(s.runCtx(), s.noDeadlock, s.opts.CounterexampleBatch)
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
	}, func() obs.Event {
		return obs.Event{Kind: obs.KindCheckResult, Parent: iterSpan,
			N: map[string]int64{
				"property_holds":  b2i(it.PropertyHolds),
				"deadlock_free":   b2i(it.DeadlockFree),
				"system_states":   int64(sys.NumStates()),
				"counterexamples": int64(len(results)),
			}}
	}); err != nil {
		return nil, false, err
	}

	if results == nil {
		// Both checks passed: M_a^c ‖ M_a^i ⊨ φ ∧ ¬δ, hence the property
		// holds for the real integrated system (Lemma 5).
		report.Verdict = VerdictProven
		report.Kind = ViolationNone
		s.emitVerdict(index, iterSpan, VerdictProven, ViolationNone, "checks-passed")
		return it, true, nil
	}

	for idx, res := range results {
		cex := res.Counterexample
		if cex == nil {
			continue
		}
		inLearnedPart := runAvoidsChaos(sys, cex)
		if idx == 0 {
			it.Counterexample = cex
			it.system = sys
			it.CexInLearnedPart = inLearnedPart
			it.CexRunWitnessed = res.RunWitnessed
		}
		// cexSpan scopes this counterexample's test section: the
		// replay_step and probe_result events nest under it.
		var cexSpan uint64
		if j := s.opts.Journal; j.Enabled() {
			cexSpan = j.NewSpan()
			j.Emit(obs.Event{Kind: obs.KindCexClassified, Iter: index,
				Trace: s.traceID, Span: cexSpan, Parent: iterSpan,
				N: map[string]int64{
					"batch_index":     int64(idx),
					"length":          int64(cex.Len()),
					"in_learned_part": b2i(inLearnedPart),
					"run_witnessed":   b2i(res.RunWitnessed),
				}, S: map[string]string{"kind": kind.String(), "trace": trace.RenderCounterexample(sys, cex)}})
		}

		if kind == ViolationConstraint && inLearnedPart && res.RunWitnessed {
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
		if err := s.phase(it, phaseTest, func() error {
			var err error
			confirmed, err = s.testCounterexample(sys, cex, kind, inLearnedPart, it, cexSpan)
			return err
		}, nil); err != nil {
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
			Trace: s.traceID, Parent: iterSpan,
			N: map[string]int64{
				"states":      int64(len(it.Delta.NewStates)),
				"transitions": int64(len(it.Delta.NewTransitions)),
				"blocked":     int64(len(it.Delta.NewBlocked)),
			}})
	}
	return it, false, nil
}

// phaseID names a timed section of the loop (see phase).
type phaseID int

const (
	phaseCompose phaseID = iota
	phaseCheck
	phaseTest
	phaseReplay
	phaseProbe
	numPhases
)

// phaseNames name the phases' core.* instruments and pprof labels; the
// test phase, which encloses replay and probe spans, has neither.
var phaseNames = [numPhases]string{"compose", "check", "test", "replay", "probe"}

// phase runs f as one span of phase p in iteration it, under p's pprof
// label while a CPU profile runs (obs.WithPhase), and is the only writer
// of phase times: the span is timed once, and that duration is added to
// the iteration's field for p, observed by p's core.* timer and histogram,
// and carried by the journal event that event builds (nil for none;
// called only when a journal is attached). A failed span is not recorded.
func (s *Synthesizer) phase(it *Iteration, p phaseID, f func() error, event func() obs.Event) error {
	start := time.Now()
	var err error
	if p == phaseTest {
		err = f()
	} else {
		err = obs.WithPhase(phaseNames[p], f)
	}
	if err != nil {
		return err
	}
	d := time.Since(start)
	*[numPhases]*time.Duration{&it.ComposeDuration, &it.CheckDuration,
		&it.TestDuration, &it.ReplayDuration, &it.ProbeDuration}[p] += d
	s.timers[p].Observe(d)
	s.hists[p].Observe(d)
	if j := s.opts.Journal; event != nil && j.Enabled() {
		e := event()
		e.Iter, e.Trace, e.DurNS = it.Index, s.traceID, int64(d)
		j.Emit(e)
	}
	return nil
}

// componentEvent builds a journal event of the test section about
// component c, nested under cexSpan; it names c in a component field when
// there is more than one component.
func (s *Synthesizer) componentEvent(kind obs.EventKind, c *component, cexSpan uint64, n map[string]int64, fields map[string]string) obs.Event {
	if len(s.comps) > 1 {
		fields["component"] = c.iface.Name
	}
	return obs.Event{Kind: kind, Parent: cexSpan, N: n, S: fields}
}

// probeResult builds the probe_result event of one deadlock-confirmation
// probe of component c under cexSpan.
func (s *Synthesizer) probeResult(c *component, cexSpan uint64, result replay.ProbeResult) obs.Event {
	n := map[string]int64{"accepted": b2i(result.Accepted)}
	if c.model.Nondet() {
		n["quiescent"] = b2i(result.Quiescent)
	}
	return s.componentEvent(obs.KindProbeResult, c, cexSpan, n, map[string]string{
		"state":  result.State,
		"input":  result.Input.String(),
		"output": result.Output.String(),
		"after":  result.After,
	})
}

func (s *Synthesizer) emitVerdict(index int, iterSpan uint64, v Verdict, kind ViolationKind, reason string) {
	if j := s.opts.Journal; j.Enabled() {
		j.Emit(obs.Event{Kind: obs.KindVerdict, Iter: index,
			Trace: s.traceID, Parent: iterSpan,
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
// patched from the previous iteration's system with what that iteration
// learned when possible, built from scratch otherwise — and fills the
// iteration's size fields. prev holds the run's earlier iterations.
func (s *Synthesizer) buildSystem(it *Iteration, prev []Iteration) (*automata.Automaton, error) {
	if !s.opts.DisableIncremental && !s.incUnsupported {
		if s.inc == nil {
			inc, err := automata.NewIncrementalSystemWith(s.runCtx(), s.context, s.comps[0].model, s.comps[0].universe, s.opts.Memo)
			if err != nil {
				return nil, fmt.Errorf("core: compose: %w", err)
			}
			s.inc = inc
		} else if err := s.inc.Apply(prev[len(prev)-1].Delta); err != nil {
			return nil, fmt.Errorf("core: incremental compose: %w", err)
		}
		it.Patched, it.BuildReason = s.inc.LastDecision()
		if s.opts.CheckIncremental {
			if err := s.inc.Verify(); err != nil {
				return nil, fmt.Errorf("core: incremental system diverged: %w", err)
			}
		}
		it.ClosureStates = s.inc.ClosureStates()
		// The patched product may hold unreachable retraction garbage;
		// report the size a from-scratch composition would have.
		it.SystemStates = s.inc.ReachableStates()
		return s.inc.System(), nil
	}

	it.BuildReason = "incremental-disabled"
	if s.incUnsupported {
		it.BuildReason = "incremental-unsupported"
	}
	parts := make([]*automata.Automaton, 1, 1+len(s.comps))
	parts[0] = s.context
	for _, c := range s.comps {
		closure, err := automata.ChaoticClosureCtx(s.runCtx(), c.model, c.universe, s.opts.Memo)
		if err != nil {
			return nil, fmt.Errorf("core: closure: %w", err)
		}
		it.ClosureStates += closure.NumStates()
		parts = append(parts, closure)
	}
	// The n-ary product of Definition 3 (a fold of the binary one would be
	// wrong); over two parts it is the binary product.
	sys, err := automata.ComposeAllCtx(s.runCtx(), "system", parts...)
	if err != nil {
		return nil, fmt.Errorf("core: compose: %w", err)
	}
	it.SystemStates = sys.NumStates()
	return sys, nil
}

// testCounterexample tests the counterexample against every legacy
// component (Section 4.2 / Section 5) and learns from the observations.
// It reports whether the counterexample was confirmed as real. cexSpan is
// the journal span of the counterexample's cex_classified event; the
// replay and probe events nest under it. inLearnedPart reports that the
// counterexample never visits a chaotic state.
//
// Each component runs its projection of the counterexample by its own
// model (testComponent); a counterexample that every component reproduces
// is real. If its violation rests on the run stopping, one probe section
// asks every component for its share of the context's offers
// (probeDeadlock).
func (s *Synthesizer) testCounterexample(sys *automata.Automaton, cex *automata.Run, kind ViolationKind, inLearnedPart bool, it *Iteration, cexSpan uint64) (bool, error) {
	final := cex.States[len(cex.States)-1]
	// The violation rests on the run being inextensible when it ends in a
	// composed deadlock: the δ check itself, or a temporal violation whose
	// witness path stops early.
	inextensible := kind == ViolationDeadlock || sys.IsDeadlock(final)
	if inLearnedPart && s.comps[0].model.Nondet() && (!inextensible || openCopyDeadlocked(sys, final)) {
		// A nondeterministic model (only ever a single component, see
		// NewMulti) certifies the counterexample without a test; see
		// openCopyDeadlocked.
		if kind == ViolationDeadlock {
			it.Test = TestConfirmedDeadlock
		} else {
			it.Test = TestRealizable
		}
		if j := s.opts.Journal; j.Enabled() {
			j.Emit(obs.Event{Kind: obs.KindNote, Iter: it.Index,
				Trace: s.traceID, Parent: cexSpan,
				S: map[string]string{"note": "counterexample certified: all transitions learned, no chaotic state visited"}})
		}
		return true, nil
	}

	reproduced, probeable := true, true
	for i, c := range s.comps {
		proj, err := sys.ProjectRun(*cex, c.iface.Name)
		if err != nil {
			return false, fmt.Errorf("core: project counterexample: %w", err)
		}
		ok, err := s.testComponent(c, proj, it, cexSpan, i == 0)
		if err != nil {
			return false, err
		}
		reproduced = reproduced && ok
		probeable = probeable && c.final != ""
	}
	switch {
	case reproduced && !inextensible:
		// The full counterexample run is real behavior and it does not
		// depend on any refusal hypothesis (its violation window elapsed
		// within the trace): the violation is confirmed.
		it.Test = TestRealizable
		return true, nil
	case !inextensible || !probeable:
		it.Test = TestDiverged
		return false, nil
	}
	// Probe every interaction the context offers at the end of the run:
	// the stop is real iff no offer can form a joint step with the
	// components' reactions.
	return s.probeDeadlock(sys, cex, it, cexSpan)
}

// testComponent runs component c's projection proj of the counterexample,
// learns what it observes, and reports whether c reproduced proj. It
// leaves the test's recording in c.rec and, in c.final, the learned state
// at which deadlock probes ask c for its share of the context's offers
// ("" when c cannot be probed). first marks the component whose test the
// iteration documents.
//
// A deterministic model is tested only where it cannot predict: when it
// foretells the projection step for step (predict), the recording and
// observed run are derived from the model, nothing executes, and nothing
// is learned — every learned step is observed behavior of a deterministic
// component (Section 4.3), and its sibling outputs were refused when it
// was learned. This is the reasoning of fast conflict detection (Listing
// 1.4) applied per component; the deadlock probes still execute, and
// replay.Probe checks every output of the predicted prefix. Otherwise the
// component is recorded with minimal probes and replayed once with full
// instrumentation (Section 5).
//
// A nondeterministic model is re-executed up to nondetAttempts times
// (replay.ReplayNondet), every observed run learned and the divergences
// journaled as ioco_merge events, until one run reproduces proj. When none
// does, whatever the attempts observed has been merged, and matured
// (state, input) pairs have been settled or refuted along the way, so the
// next closure shrinks accordingly.
func (s *Synthesizer) testComponent(c *component, proj automata.ProjectedRun, it *Iteration, cexSpan uint64, first bool) (bool, error) {
	nondet := c.model.Nondet()
	inputs := make([]automata.SignalSet, len(proj.Steps))
	for k, step := range proj.Steps {
		inputs[k] = step.In
	}
	var rec replay.Recording
	attempts := 1
	if nondet {
		// The recording is synthesized from the projection instead of
		// taped from a live execution: the hypothesized run itself is the
		// divergence baseline the ioco check needs. This also keeps every
		// real execution inside ReplayNondet, where it is observed,
		// learned, and counted — a live Record pass monitors messages only
		// (no state probes), so its scheduler turns would be invisible to
		// the fair-visit counters and shift the round-robin phase out from
		// under the completeness budget.
		attempts = nondetAttempts
		outputs := make([]automata.SignalSet, len(proj.Steps))
		for k, step := range proj.Steps {
			outputs[k] = step.Out
		}
		rec = replay.Recording{Iface: c.iface, Inputs: inputs, Outputs: outputs, BlockedAt: -1}
	}
	for attempt := 0; attempt < attempts; attempt++ {
		var run automata.ObservedRun
		var divs []replay.Divergence
		var predicted bool
		if err := s.phase(it, phaseReplay, func() error {
			var err error
			switch {
			case nondet:
				if err := s.runCtx().Err(); err != nil {
					return fmt.Errorf("core: nondet test aborted: %w", err)
				}
				s.testsRun++
				if run, divs, err = replay.ReplayNondet(c.comp, rec, c.model); err != nil {
					return fmt.Errorf("core: nondet replay failed: %w", err)
				}
				for _, d := range divs {
					if !d.Allowed {
						// The fragment explicitly refutes what the component
						// just did: a learned refusal (completeness block) was
						// wrong, which falsifies the fairness assumption or
						// the completeness budget. Surface it instead of
						// merging.
						return fmt.Errorf("core: observation contradicts learned refusal: %s", d)
					}
				}
			default:
				if rec, run, predicted = c.predict(inputs); predicted {
					it.TestsPredicted++
					return nil
				}
				rec = replay.Record(c.comp, c.iface, inputs)
				s.testsRun++
				if run, err = replay.Replay(c.comp, rec); err != nil {
					return fmt.Errorf("core: deterministic replay failed: %w", err)
				}
			}
			return s.learnObservation(c, run, it)
		}, func() obs.Event {
			n := map[string]int64{"periods": int64(len(run.Steps)), "blocked_at": int64(rec.BlockedAt)}
			if nondet {
				n["diverged"], n["attempt"] = int64(len(divs)), int64(attempt)
			} else {
				n["predicted"] = b2i(predicted)
			}
			return s.componentEvent(obs.KindReplayStep, c, cexSpan, n,
				map[string]string{"trace": replay.ReplayTrace(c.iface, run, nondet).Render()})
		}); err != nil {
			return false, err
		}
		if first && attempt == 0 {
			it.Recording, it.replayed, it.nondet = &rec, &run, nondet
		}
		if j := s.opts.Journal; j.Enabled() {
			for _, d := range divs {
				s.emitMerge(j, d, it, cexSpan)
			}
		}
		if reproduces(proj, run) {
			c.rec, c.final = rec, finalState(run)
			return true, nil
		}
	}
	c.rec, c.final = rec, ""
	// A nondeterministic component can still be probed at the projection's
	// final state if that is a learned one: ProbeNondet re-executes the
	// input plan itself, so sampling the context's offers there does not
	// require one of the attempts to have realized the full run — which
	// correlated branch cursors can prevent forever (the cursor of a
	// downstream pair may advance an exact multiple of its degree between
	// successive runs that reach it). A chaotic projection has no real
	// final state to re-find.
	if name := proj.StateNames[len(proj.StateNames)-1]; nondet && !chaoticName(name) &&
		c.model.Automaton().State(name) != automata.NoState {
		c.final = name
	}
	return false, nil
}

// emitMerge journals one divergent-but-allowed observation of a
// nondeterministic replay as an ioco_merge event under cexSpan.
func (s *Synthesizer) emitMerge(j *obs.Journal, d replay.Divergence, it *Iteration, cexSpan uint64) {
	recorded, observed := d.Recorded.String(), d.Observed.String()
	if d.RecordedRefused {
		recorded = "refused"
	}
	if d.ObservedRefused {
		observed = "refused"
	}
	j.Emit(obs.Event{Kind: obs.KindIocoMerge, Iter: it.Index,
		Trace: s.traceID, Parent: cexSpan,
		N: map[string]int64{
			"period":  int64(d.Period),
			"allowed": b2i(d.Allowed),
		}, S: map[string]string{
			"state":    d.State,
			"input":    d.Input.String(),
			"observed": observed,
			"recorded": recorded,
		}})
}

// reproduces reports whether an observed run reproduces a component's
// projection of the counterexample: every projected step, with the
// projected output, into the projected state wherever the projection names
// a learned one. A chaotic state is a wildcard: the projection holds no
// real name there. On a deterministic model the states follow from the
// outputs, since every learned step was observed (Section 4.3).
func reproduces(proj automata.ProjectedRun, run automata.ObservedRun) bool {
	if run.Blocked != nil || len(run.Steps) != len(proj.Steps) {
		return false
	}
	for k, step := range run.Steps {
		want := proj.StateNames[k+1]
		if !step.Label.Out.Equal(proj.Steps[k].Out) || !chaoticName(want) && step.To != want {
			return false
		}
	}
	return true
}

// chaoticName reports whether a projected state name is one of the
// closure's chaotic states.
func chaoticName(name string) bool {
	return name == automata.ChaosAllState || name == automata.ChaosDeltaState
}

// predict derives the recording and observed run of executing inputs on c
// from c's learned model, and reports whether the model predicts them: it
// must have exactly one learned reaction to each input in turn, starting
// from the initial state. A projection that avoids the chaotic states
// always has that. Under the determinism assumption of Section 4.3 the
// component then produces exactly the predicted outputs and states, so
// Record and Replay would return the same recording and run. A
// nondeterministic model never predicts: one learned successor says
// nothing about its siblings.
func (c *component) predict(inputs []automata.SignalSet) (replay.Recording, automata.ObservedRun, bool) {
	if c.model.Nondet() {
		return replay.Recording{}, automata.ObservedRun{}, false
	}
	a := c.model.Automaton()
	cur := a.Initial()[0]
	run := automata.ObservedRun{Initial: a.StateName(cur), Steps: make([]automata.ObservedStep, len(inputs))}
	outputs := make([]automata.SignalSet, len(inputs))
	for k, in := range inputs {
		next := automata.NoState
		for _, t := range a.TransitionsFrom(cur) {
			if !t.Label.In.Equal(in) {
				continue
			}
			if next != automata.NoState {
				return replay.Recording{}, automata.ObservedRun{}, false
			}
			next = t.To
			run.Steps[k] = automata.ObservedStep{Label: t.Label, To: a.StateName(t.To)}
			outputs[k] = t.Label.Out
		}
		if next == automata.NoState {
			return replay.Recording{}, automata.ObservedRun{}, false
		}
		cur = next
	}
	return replay.Recording{Iface: c.iface, Inputs: inputs, Outputs: outputs, BlockedAt: -1}, run, true
}

// probeDeadlock checks whether the composed deadlock at the end of the
// counterexample is real: it is iff no interaction the context offers
// there forms a joint step (Definition 3) with the components' reactions.
// Each component is asked for its share of every offer (offerShare): the
// inputs the context sends it, and the outputs the context expects of it.
// An offer forms a joint step iff every component accepts its input and
// may answer with the expected outputs; deciding that per component is
// exact because the alphabets are pairwise disjoint.
func (s *Synthesizer) probeDeadlock(sys *automata.Automaton, cex *automata.Run, it *Iteration, cexSpan uint64) (bool, error) {
	ctxState, err := ContextStateAt(s.context, sys, cex.States[len(cex.States)-1])
	if err != nil {
		return false, err
	}

	shares := make(map[shareKey]*shareSamples)
	jointPossible := false
	for _, offer := range s.context.TransitionsFrom(ctxState) {
		// The offer is only realizable if everything the context sends
		// reaches some component.
		if !offer.Label.Out.SubsetOf(s.inputs) {
			continue
		}
		joint := true
		for _, c := range s.comps {
			// The component's input under this offer is its share of what
			// the context sends (all of it for a single component).
			in := offer.Label.Out
			if len(s.comps) > 1 {
				in = in.Intersect(c.iface.Inputs)
			}
			accepted, answers, err := s.offerShare(c, in, offer.Label.In.Intersect(c.iface.Outputs), shares, it, cexSpan)
			if err != nil {
				return false, err
			}
			if !accepted {
				joint = false
				break
			}
			joint = joint && answers
		}
		jointPossible = jointPossible || joint
	}

	if jointPossible {
		it.Test = TestDiverged
		return false, nil
	}
	it.Test = TestConfirmedDeadlock
	return true, nil
}

// shareKey identifies one component's input share of the context's offers
// within a probe section.
type shareKey struct {
	c  *component
	in string
}

// shareSamples is what a probe section observed of one component's
// reactions to one input at its final state.
type shareSamples struct {
	refused bool
	// outs are the outputs of the accepted probes, one per probe.
	outs []automata.SignalSet
	// asked are the outputs already asked for of a nondeterministic
	// component, each decided once per probe section.
	asked []automata.SignalSet
}

// offerShare asks component c at the end of its part of the
// counterexample for its share of a context offer: whether it accepts
// input in, and whether it may answer with want. shares holds what the
// probe section has observed so far. Refusals are decisive, because a
// component refuses per (state, input) deterministically.
//
// A deterministic component is probed once per input: its reaction is a
// function of the state.
//
// A nondeterministic component is checked against its learned model first
// — a learned transition at the final state that matches is behavior that
// was actually observed — and then its out-set is sampled, up to
// nondetCompleteness accepted probes, until want appears or the input is
// refused. A budget that runs dry decides nothing, and neither do
// re-executions that never reach the final state: the share stays open,
// which refutes the deadlock claim for this iteration. Sampling is not
// fair here — the prefix re-execution that reaches the final state can
// phase-lock the round-robin schedule and starve a real branch — but the
// sampled runs are learned, so fair-visit maturity either surfaces the
// missing output or certifies its refusal, and the counterexample is then
// certified by the model instead.
func (s *Synthesizer) offerShare(c *component, in, want automata.SignalSet, shares map[shareKey]*shareSamples, it *Iteration, cexSpan uint64) (accepted, answers bool, err error) {
	key := shareKey{c, in.Key()}
	sh := shares[key]
	if sh == nil {
		sh = &shareSamples{}
		shares[key] = sh
	}
	switch {
	case sh.refused:
		return false, false, nil
	case slices.ContainsFunc(sh.outs, want.Equal):
		return true, true, nil
	}
	budget := 1
	if c.model.Nondet() {
		if slices.ContainsFunc(sh.asked, want.Equal) {
			return true, true, nil
		}
		sh.asked = append(sh.asked, want)
		a := c.model.Automaton()
		if id := a.State(c.final); id != automata.NoState && len(a.Successors(id, automata.Interaction{In: in, Out: want})) > 0 {
			return true, true, nil
		}
		budget = nondetCompleteness
	}
	for len(sh.outs) < budget {
		result, reached, err := s.probe(c, in, it, cexSpan)
		if err != nil {
			return false, false, err
		}
		if !reached {
			return true, true, nil
		}
		if !result.Accepted {
			sh.refused = true
			return false, false, nil
		}
		sh.outs = append(sh.outs, result.Output)
		if result.Output.Equal(want) {
			return true, true, nil
		}
	}
	// The budget is spent without want: the one reaction of a
	// deterministic component is another, and a nondeterministic one
	// stays open.
	return true, c.model.Nondet(), nil
}

// errProbeUnreached ends a nondeterministic probe span whose re-executions
// never reached the final state: with no result it is not recorded as a
// probe, and its time stays in the test span.
var errProbeUnreached = errors.New("core: nondet probe did not reach its final state")

// probe performs one deadlock-confirmation probe of component c in a probe
// span: it replays c's recorded prefix, performs input in at c.final, and
// learns every run it observed. reached is false when a nondeterministic
// component's re-executions (replay.ProbeNondet, which follow the actual
// behavior) never ended in c.final; a deterministic one always reaches it
// (replay.Probe, whose re-execution Section 5's replay makes
// deterministic).
func (s *Synthesizer) probe(c *component, in automata.SignalSet, it *Iteration, cexSpan uint64) (replay.ProbeResult, bool, error) {
	var result replay.ProbeResult
	err := s.phase(it, phaseProbe, func() error {
		var runs []automata.ObservedRun
		reached := true
		if c.model.Nondet() {
			if err := s.runCtx().Err(); err != nil {
				return fmt.Errorf("core: nondet probe aborted: %w", err)
			}
			var err error
			if result, runs, reached, err = replay.ProbeNondet(c.comp, c.rec, in, c.final, nondetAttempts); err != nil {
				return fmt.Errorf("core: nondet probe: %w", err)
			}
		} else {
			var err error
			if result, err = replay.Probe(c.comp, c.rec, in); err != nil {
				return fmt.Errorf("core: probe: %w", err)
			}
			// The observation is the probe step from the final state; the
			// prefix was learned (or predicted) by the test.
			run := automata.ObservedRun{Initial: c.final}
			if result.Accepted {
				run.Steps = []automata.ObservedStep{{Label: automata.Interaction{In: in, Out: result.Output}, To: result.After}}
			} else {
				run.Blocked = &automata.Interaction{In: in}
			}
			runs = []automata.ObservedRun{run}
		}
		for _, run := range runs {
			if err := s.learnObservation(c, run, it); err != nil {
				return err
			}
		}
		if !reached {
			return errProbeUnreached
		}
		it.Probes = append(it.Probes, result)
		return nil
	}, func() obs.Event {
		return s.probeResult(c, cexSpan, result)
	})
	if errors.Is(err, errProbeUnreached) {
		return result, false, nil
	}
	return result, true, err
}

// learnObservation merges an observed run into c's model and records what
// the observation refutes. A refused input refutes every output
// hypothesis under it (the component refuses per (state, input)
// deterministically; under PaperLiteralLearning a deterministic model
// records only the refused interaction itself). Each observed (s, A, B)
// refutes every (s, A, B′) with B′ ≠ B on a deterministic model, and
// nothing on a nondeterministic one, where outputs race; there the run's
// fair visits are counted instead (countVisits).
//
// The Blocked branch learns every refused probe and every test run that
// ends refused. With a single deterministic component a test run can end
// refused only at its plan's last step: the steps of a plan that leave the
// learned part are chaos transitions, a plan the learned model predicts is
// not executed at all, and the rest end in the chaotic state they enter
// (the chaos-weakened property is satisfied at s_∀, and (s,0) deadlocks
// precede s_δ ones in the shortest-counterexample search). A run is
// refused mid-plan with several components, where a counterexample runs
// on past one component's chaotic states while the others still move, on
// a nondeterministic model, whose replays follow the component's actual
// behavior, and for callers feeding externally constructed plans.
func (s *Synthesizer) learnObservation(c *component, observed automata.ObservedRun, it *Iteration) error {
	// When the component blocked an input entirely, every output
	// hypothesis under that input is refuted.
	nondet := c.model.Nondet()
	refuseBlocked := observed.Blocked != nil && (nondet || !s.opts.PaperLiteralLearning)
	run := observed
	if refuseBlocked {
		run.Blocked = nil
	}
	delta, err := c.model.Learn(run, c.labeler)
	if err != nil {
		return fmt.Errorf("core: learn: %w", err)
	}
	it.Delta.Merge(delta)

	switch {
	case refuseBlocked:
		if err := s.refuse(c, finalState(run), observed.Blocked.In, nil, false, it); err != nil {
			return err
		}
	case !nondet && !s.opts.PaperLiteralLearning:
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
	if nondet {
		return s.countVisits(c, observed, it)
	}
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
				it.Delta.NewSettled = append(it.Delta.NewSettled, automata.BlockedEntry{State: id, Label: x})
			}
			continue
		}
		if c.model.IsBlocked(id, x) {
			continue
		}
		if err := c.model.Block(id, x); err != nil {
			return err
		}
		it.Delta.NewBlocked = append(it.Delta.NewBlocked, automata.BlockedEntry{State: id, Label: x})
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

// ContextStateAt returns the context automaton's own state in a composed
// system state: the system is composed over the context as its first
// factor, so this is the first entry of the state's tuple. Exported for
// the model-based soundness oracle (internal/mbt), which independently
// re-derives the context's offers at the end of a violation witness to
// confirm a reported deadlock against the ground-truth component.
func ContextStateAt(context, sys *automata.Automaton, composed automata.StateID) (automata.StateID, error) {
	if f := sys.Factors(); len(f) == 0 || f[0] != context {
		return automata.NoState, fmt.Errorf("core: system %q is not composed over context %q", sys.Name(), context.Name())
	}
	return sys.FactorState(composed, 0), nil
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
