// Package gen generates random-but-reproducible legacy-integration
// instances for the model-based soundness harness (internal/mbt).
//
// An instance is one complete input to the synthesis loop of package core:
// a context automaton M_a^c, a ground-truth legacy automaton M_r (kept
// function-deterministic so it wraps as a legacy.Component), and an
// optional ACTL property φ. Because the generator knows the full M_r, the
// harness can decide every verdict independently — model checking the true
// composition M_a^c ‖ M_r directly — and check the loop's answers against
// that ground truth.
//
// Randomness is threaded explicitly: every generation function takes a
// *rand.Rand and no package-level PRNG state exists, so the same seed
// always produces the same instance regardless of call order or
// parallelism.
//
// The distributions are deliberately adversarial for the synthesis loop:
//
//   - dead legacy states (no outgoing transitions) and refused inputs
//     (blocked regions) make real deadlocks and refusal learning common;
//   - unreachable legacy states exercise the "learn only what the context
//     needs" behavior and keep ground-truth exploration honest;
//   - nondeterministic contexts exercise the product construction beyond
//     what a deterministic specification would;
//   - wide alphabets (WideConfig, 70 signals) push interned labels past
//     one machine word, so Compose/ChaoticClosure/IncrementalSystem/Refines
//     run under test with both words of the interner's masks;
//   - properties are drawn from the ACTL pattern helpers and biased, by
//     checking candidates against the true composition, so that both
//     provable and violated outcomes occur regularly.
package gen

import (
	"fmt"
	"math/rand"
	"sync"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/legacy"
)

// ContextName and LegacyName are the component names used for every
// generated instance; properties reference state labels "ctx.cK" and
// "impl.sK" under these names.
const (
	ContextName = "ctx"
	LegacyName  = "impl"
)

// Config tunes the instance distribution. The zero value selects the
// defaults documented per field.
type Config struct {
	// MaxLegacyStates bounds the legacy automaton size; the actual count
	// is uniform in [1, MaxLegacyStates]. Default 6.
	MaxLegacyStates int
	// MaxContextStates bounds the context automaton size. Default 5.
	MaxContextStates int
	// Inputs and Outputs size the legacy alphabet: Inputs signals flow
	// context→legacy ("i00", "i01", ...), Outputs flow legacy→context
	// ("o00", ...). Defaults 3 and 2. The sum must stay within
	// automata.MaxInternSignals (128): wider alphabets are an error.
	Inputs, Outputs int
	// RefuseBias is the probability that a live legacy state refuses a
	// given input entirely (a blocked region). Default 0.35.
	RefuseBias float64
	// DeadStateBias is the probability that a non-initial legacy state is
	// dead: it refuses every input, so reaching it deadlocks the
	// component. Default 0.15.
	DeadStateBias float64
	// ContextStopBias is the probability that a non-initial context state
	// has no outgoing transitions. Default 0.10.
	ContextStopBias float64
	// ContextNondet is the probability that a context state receives a
	// second transition under an already-used interaction label
	// (nondeterminism). Default 0.25.
	ContextNondet float64
	// OutputRace is the probability that a live (state, input) gains a
	// second transition with a different output — a racing out-set, the
	// canonical ioco-visible nondeterminism. Default 0: deterministic
	// instances. (withDefaults never assigns the nondet knobs, so zero
	// configs stay function-deterministic.)
	OutputRace float64
	// DupSuccessor is the probability that a transition gains a duplicate
	// under the *same* interaction label to a different successor —
	// invisible to a single observation, the hard case for closure
	// soundness. Default 0.
	DupSuccessor float64
	// LossyOutput is the probability that a transition with a non-empty
	// output gains a sibling that consumes the same input silently
	// (message loss), making quiescence observations meaningful. Default 0.
	LossyOutput float64
	// PropertyCandidates is how many candidate formulas are drawn and
	// classified against the true composition before one is selected.
	// Default 8.
	PropertyCandidates int
	// NoPropertyBias is the probability that the instance checks deadlock
	// freedom only (Property == nil). Default 0.15.
	NoPropertyBias float64
}

// DefaultConfig returns the default small-instance distribution.
func DefaultConfig() Config { return Config{}.withDefaults() }

// WideConfig returns a distribution whose combined alphabet (70 signals)
// is wider than one machine word, so every interned algorithm carries its
// labels in both words of the interner's masks. Refusals are raised so the
// ground-truth behavior stays small despite the wide alphabet.
func WideConfig() Config {
	c := Config{Inputs: 40, Outputs: 30, RefuseBias: 0.9, MaxLegacyStates: 4, MaxContextStates: 4}
	return c.withDefaults()
}

// NondetConfig returns the default distribution over function-
// nondeterministic legacy components: output races, duplicated successors
// and lossy outputs are all switched on, sized so that per-(state, input)
// branching stays well under the core loop's completeness budget.
func NondetConfig() Config {
	c := Config{
		MaxLegacyStates: 5,
		OutputRace:      0.35,
		DupSuccessor:    0.30,
		LossyOutput:     0.20,
	}
	return c.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.MaxLegacyStates <= 0 {
		c.MaxLegacyStates = 6
	}
	if c.MaxContextStates <= 0 {
		c.MaxContextStates = 5
	}
	if c.Inputs <= 0 {
		c.Inputs = 3
	}
	if c.Outputs <= 0 {
		c.Outputs = 2
	}
	if c.RefuseBias == 0 {
		c.RefuseBias = 0.35
	}
	if c.DeadStateBias == 0 {
		c.DeadStateBias = 0.15
	}
	if c.ContextStopBias == 0 {
		c.ContextStopBias = 0.10
	}
	if c.ContextNondet == 0 {
		c.ContextNondet = 0.25
	}
	if c.PropertyCandidates <= 0 {
		c.PropertyCandidates = 8
	}
	if c.NoPropertyBias == 0 {
		c.NoPropertyBias = 0.15
	}
	return c
}

// Instance is one generated (or shrunk) input to the synthesis loop plus
// the generation-time ground truth.
type Instance struct {
	// Seed reproduces the instance via New(Seed, Cfg); 0 for instances
	// that were shrunk or loaded from a repro file.
	Seed int64
	// Cfg is the distribution the instance was drawn from.
	Cfg Config

	// Context is the abstract context model M_a^c (possibly
	// nondeterministic), with states labeled "ctx.cK".
	Context *automata.Automaton
	// Legacy is the full ground-truth automaton M_r of the component
	// under integration. It is function-deterministic, so it wraps as a
	// legacy.Component; the synthesis loop only ever sees it through that
	// black-box interface.
	Legacy *automata.Automaton
	// Property is the constraint φ to establish; nil checks deadlock
	// freedom only.
	Property ctl.Formula

	// TruePropertyHolds and TrueDeadlockFree record the generation-time
	// model-check of the true composition (informational; the oracle
	// recomputes both, which matters after shrinking).
	TruePropertyHolds bool
	TrueDeadlockFree  bool
}

// New generates the instance identified by (seed, cfg).
func New(seed int64, cfg Config) (*Instance, error) {
	inst, err := Generate(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	inst.Seed = seed
	return inst, nil
}

// Generate draws one instance from the distribution using the given PRNG.
func Generate(r *rand.Rand, cfg Config) (*Instance, error) {
	cfg = cfg.withDefaults()
	alpha := alphabetFor("i", "o", cfg.Inputs, cfg.Outputs)
	inst := &Instance{
		Cfg:     cfg,
		Legacy:  genLegacy(r, cfg, LegacyName, alpha),
		Context: genContext(r, cfg, alpha),
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid instance: %w", err)
	}
	if err := genProperty(r, cfg, inst); err != nil {
		return nil, err
	}
	return inst, nil
}

// alphabet is a component's alphabet as the generator draws from it: the
// input and output signals, and the singleton universe's step sets over
// each (∅, then each signal alone). The output steps are those the
// mirrored context takes as inputs. An alphabet is immutable.
type alphabet struct {
	ins, outs         automata.SignalSet
	inSteps, outSteps []automata.SignalSet
}

func newAlphabet(ins, outs automata.SignalSet) *alphabet {
	u := automata.Universe(automata.UniverseSingleton)
	return &alphabet{ins: ins, outs: outs,
		inSteps: automata.InputSets(u, ins, outs), outSteps: automata.InputSets(u, outs, ins)}
}

// alphabetKey names an alphabet of makeSignals: the signal prefixes and
// counts per direction.
type alphabetKey struct {
	inPrefix, outPrefix string
	ins, outs           int
}

// maxAlphabets bounds the alphabets kept for reuse; past it the cache
// starts over. A batch manifest names one of two configurations per
// entry, each perfbench workload draws from one, and NewMulti keeps one
// per component. Full, the cache holds about 250 KB (32 alphabets of
// 64 + 64 signals).
const maxAlphabets = 32

// alphabets holds the alphabets built so far: every instance of a
// configuration draws from one, built once.
var alphabets struct {
	sync.Mutex
	m map[alphabetKey]*alphabet
}

// alphabetFor returns the alphabet of n input and m output signals named
// inPrefix00, inPrefix01, … and outPrefix00, …, shared by every caller.
func alphabetFor(inPrefix, outPrefix string, n, m int) *alphabet {
	k := alphabetKey{inPrefix, outPrefix, n, m}
	alphabets.Lock()
	defer alphabets.Unlock()
	if a := alphabets.m[k]; a != nil {
		return a
	}
	if alphabets.m == nil || len(alphabets.m) >= maxAlphabets {
		alphabets.m = make(map[alphabetKey]*alphabet)
	}
	a := newAlphabet(makeSignals(inPrefix, n), makeSignals(outPrefix, m))
	alphabets.m[k] = a
	return a
}

func makeSignals(prefix string, n int) automata.SignalSet {
	signals := make([]automata.Signal, n)
	for i := range signals {
		signals[i] = automata.Signal(fmt.Sprintf("%s%02d", prefix, i))
	}
	return automata.NewSignalSet(signals...)
}

// genLegacy builds a function-deterministic ground-truth automaton named
// name: per (state, input) at most one transition, so legacy.WrapAutomaton
// accepts it. Dead states refuse everything; live states refuse each input
// with RefuseBias and otherwise react with a uniformly chosen output and
// successor.
func genLegacy(r *rand.Rand, cfg Config, name string, alpha *alphabet) *automata.Automaton {
	n := 1 + r.Intn(cfg.MaxLegacyStates)
	a := automata.New(name, alpha.ins, alpha.outs)
	ids := make([]automata.StateID, n)
	for i := range ids {
		ids[i] = a.MustAddState(fmt.Sprintf("s%d", i))
	}
	a.MarkInitial(ids[0])

	inputs, outputs := alpha.inSteps, alpha.outSteps
	for i, from := range ids {
		if i != 0 && r.Float64() < cfg.DeadStateBias {
			continue // dead region: every input refused
		}
		for _, in := range inputs {
			if r.Float64() < cfg.RefuseBias {
				continue // blocked region: this input refused here
			}
			label := automata.Interaction{In: in, Out: outputs[r.Intn(len(outputs))]}
			a.MustAddTransition(from, label, ids[r.Intn(n)])
		}
	}

	// Nondeterministic augmentation: each base transition may sprout
	// siblings under the same input. The pass runs over a copy of the
	// transitions so new siblings do not themselves sprout, which keeps
	// per-(state, input) branching at ≤ 4 — comfortably inside the core
	// loop's default completeness budget.
	if cfg.OutputRace > 0 || cfg.DupSuccessor > 0 || cfg.LossyOutput > 0 {
		addDistinct := func(from automata.StateID, label automata.Interaction, to automata.StateID) {
			if !containsState(a.Successors(from, label), to) {
				a.MustAddTransition(from, label, to)
			}
		}
		for _, t := range a.Transitions() {
			if cfg.OutputRace > 0 && r.Float64() < cfg.OutputRace {
				if out := outputs[r.Intn(len(outputs))]; !out.Equal(t.Label.Out) {
					addDistinct(t.From, automata.Interaction{In: t.Label.In, Out: out}, ids[r.Intn(n)])
				}
			}
			if cfg.DupSuccessor > 0 && r.Float64() < cfg.DupSuccessor {
				addDistinct(t.From, t.Label, ids[r.Intn(n)])
			}
			if cfg.LossyOutput > 0 && !t.Label.Out.IsEmpty() && r.Float64() < cfg.LossyOutput {
				addDistinct(t.From, automata.Interaction{In: t.Label.In, Out: automata.EmptySet}, ids[r.Intn(n)])
			}
		}
	}
	return a
}

// genContext builds the (possibly nondeterministic) context. Its inputs
// are the legacy outputs and vice versa, so the pair is composable. The
// empty set is over-weighted on both directions of a label: joint steps
// require the legacy's simultaneous outputs to match the context's
// expectation exactly, and all-singleton labels would make live
// compositions too rare to exercise the Proven path.
func genContext(r *rand.Rand, cfg Config, alpha *alphabet) *automata.Automaton {
	m := 1 + r.Intn(cfg.MaxContextStates)
	ctx := automata.New(ContextName, alpha.outs, alpha.ins)
	ids := make([]automata.StateID, m)
	for i := range ids {
		ids[i] = ctx.MustAddState(fmt.Sprintf("c%d", i))
	}
	ctx.MarkInitial(ids[0])

	expects := alpha.outSteps // what the legacy must send back
	sends := alpha.inSteps    // what the context hands over
	pick := func(steps []automata.SignalSet) automata.SignalSet {
		if r.Float64() < 0.5 {
			return automata.EmptySet
		}
		return steps[r.Intn(len(steps))]
	}
	for i, from := range ids {
		if i != 0 && r.Float64() < cfg.ContextStopBias {
			continue // context stops offering anything here
		}
		k := 1 + r.Intn(3)
		for j := 0; j < k; j++ {
			label := automata.Interaction{In: pick(expects), Out: pick(sends)}
			to := ids[r.Intn(m)]
			if used := ctx.Successors(from, label); len(used) > 0 {
				// Reusing a label makes the context nondeterministic;
				// only do so when the nondeterminism roll says to, and
				// never duplicate an existing (label, target) pair.
				if r.Float64() >= cfg.ContextNondet || containsState(used, to) {
					continue
				}
			}
			ctx.MustAddTransition(from, label, to)
		}
	}
	ctx.LabelStatesByName()
	return ctx
}

func containsState(states []automata.StateID, id automata.StateID) bool {
	for _, s := range states {
		if s == id {
			return true
		}
	}
	return false
}

// genProperty draws PropertyCandidates ACTL formulas from the pattern
// helpers, classifies each against the true composition, and selects one
// so that provable and violated outcomes both occur regularly.
func genProperty(r *rand.Rand, cfg Config, inst *Instance) error {
	sys, err := inst.TrueComposition()
	if err != nil {
		return err
	}
	checker := ctl.NewChecker(sys)
	inst.TrueDeadlockFree = checker.Holds(ctl.NoDeadlock())

	implProp := func() ctl.Formula {
		return ctl.Atom(automata.Proposition(fmt.Sprintf("%s.s%d", LegacyName, r.Intn(inst.Legacy.NumStates()))))
	}
	ctxProp := func() ctl.Formula {
		return ctl.Atom(automata.Proposition(fmt.Sprintf("%s.c%d", ContextName, r.Intn(inst.Context.NumStates()))))
	}
	draw := func() ctl.Formula {
		switch r.Intn(4) {
		case 0:
			return ctl.AG(ctl.Not(ctl.And(ctxProp(), implProp()))) // mutual exclusion
		case 1:
			return ctl.Absence(implProp())
		case 2:
			return ctl.Response(ctxProp(), implProp(), 1, 1+r.Intn(3))
		default:
			return ctl.Universality(ctl.Or(implProp(), implProp(), ctxProp()))
		}
	}

	if r.Float64() < cfg.NoPropertyBias {
		inst.Property = nil
		inst.TruePropertyHolds = true
		return nil
	}
	var held, violated []ctl.Formula
	for i := 0; i < cfg.PropertyCandidates; i++ {
		f := draw()
		if !ctl.IsACTL(f) {
			continue // defensive: every pattern above is ACTL
		}
		if checker.Holds(f) {
			held = append(held, f)
		} else {
			violated = append(violated, f)
		}
	}
	pools := [2][]ctl.Formula{held, violated}
	first := r.Intn(2) // 0: prefer provable, 1: prefer violated
	for _, pool := range [2][]ctl.Formula{pools[first], pools[1-first]} {
		if len(pool) > 0 {
			inst.Property = pool[r.Intn(len(pool))]
			inst.TruePropertyHolds = checker.Holds(inst.Property)
			return nil
		}
	}
	inst.Property = nil
	inst.TruePropertyHolds = true
	return nil
}

// Interface returns the structural interface of the legacy component — the
// only information the synthesis loop gets up front.
func (inst *Instance) Interface() legacy.Interface {
	return legacy.Interface{
		Name:    inst.Legacy.Name(),
		Inputs:  inst.Legacy.Inputs(),
		Outputs: inst.Legacy.Outputs(),
	}
}

// Nondet reports whether the ground-truth automaton is function-
// nondeterministic — the instance then requires the ioco-based synthesis
// path (core.Options.Nondet) and a fair-scheduled component wrapper.
func (inst *Instance) Nondet() bool {
	return !legacy.FunctionDeterministic(inst.Legacy)
}

// Component wraps the ground-truth automaton as a fresh, stateful
// black-box component. Each call returns an independent instance so
// repeated synthesis runs do not share replay state. Nondeterministic
// ground truths wrap as fair round-robin components.
func (inst *Instance) Component() (legacy.Component, error) {
	if inst.Nondet() {
		return legacy.WrapNondet(inst.Legacy)
	}
	return legacy.WrapAutomaton(inst.Legacy)
}

// Truth explores the component exhaustively into its reachable behavior
// automaton, labeled with the same qualified scheme the synthesis loop
// uses ("impl.sK"), so learned models and ground truth are comparable.
// For a nondeterministic ground truth the black-box exploration is
// replaced by trimming the known automaton to its reachable part — the
// generator owns M_r, and single-run exploration cannot enumerate
// out-sets.
func (inst *Instance) Truth() (*automata.Automaton, error) {
	if inst.Nondet() {
		truth := inst.Legacy.Trim(LegacyName)
		labeler := core.QualifiedLabeler(LegacyName)
		for i := 0; i < truth.NumStates(); i++ {
			id := automata.StateID(i)
			for _, p := range labeler(truth.StateName(id)) {
				truth.AddLabel(id, p)
			}
		}
		return truth, nil
	}
	comp, err := inst.Component()
	if err != nil {
		return nil, err
	}
	return core.ExploreComponent(comp, inst.Interface(),
		automata.Universe(automata.UniverseSingleton),
		core.QualifiedLabeler(LegacyName), inst.Legacy.NumStates()+1), nil
}

// TrueComposition composes the context with the explored ground truth:
// the real integrated system M_a^c ‖ M_r that every verdict is about.
func (inst *Instance) TrueComposition() (*automata.Automaton, error) {
	truth, err := inst.Truth()
	if err != nil {
		return nil, err
	}
	return automata.Compose("truth", inst.Context, truth)
}

// Validate checks the structural invariants every instance must satisfy:
// composable disjoint alphabets, valid automata, and a legacy automaton
// that wraps as a component — deterministic or fair-scheduled
// nondeterministic, matching what Component returns.
func (inst *Instance) Validate() error {
	if inst.Context == nil || inst.Legacy == nil {
		return fmt.Errorf("gen: instance missing context or legacy automaton")
	}
	if err := inst.Context.Validate(); err != nil {
		return err
	}
	if err := inst.Legacy.Validate(); err != nil {
		return err
	}
	if _, err := inst.Component(); err != nil {
		return err
	}
	if inst.Property != nil && !ctl.IsACTL(inst.Property) {
		return fmt.Errorf("gen: property %s is not ACTL", inst.Property)
	}
	return nil
}

// Clone returns a deep copy sharing no mutable state with the original.
func (inst *Instance) Clone() *Instance {
	out := *inst
	out.Context = inst.Context.Clone(inst.Context.Name())
	out.Legacy = inst.Legacy.Clone(inst.Legacy.Name())
	return &out
}

// Summary renders the instance sizes for log lines.
func (inst *Instance) Summary() string {
	prop := "¬δ only"
	if inst.Property != nil {
		prop = inst.Property.String()
	}
	return fmt.Sprintf("ctx |S|=%d |T|=%d, impl |S|=%d |T|=%d, |I|=%d |O|=%d, φ: %s",
		inst.Context.NumStates(), inst.Context.NumTransitions(),
		inst.Legacy.NumStates(), inst.Legacy.NumTransitions(),
		inst.Legacy.Inputs().Len(), inst.Legacy.Outputs().Len(), prop)
}
