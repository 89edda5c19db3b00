package gen

import (
	"fmt"

	"muml/internal/automata"
	"muml/internal/ctl"
	"muml/internal/legacy"
)

// MultiInstance is one generated input to the multi-component synthesis
// loop (core.NewMulti): k ground-truth legacy automata with disjoint
// alphabets, named "impl0" … "impl{k-1}", and one context over the union
// of their alphabets.
type MultiInstance struct {
	// Seed and Cfg reproduce the instance via NewMulti(Seed, Cfg, k).
	Seed int64
	Cfg  Config

	// Context is the abstract context model M_a^c, states labeled "ctx.cK".
	Context *automata.Automaton
	// Legacies are the function-deterministic ground truths M_r^j; the
	// synthesis loop sees them only as black-box components.
	Legacies []*automata.Automaton
	// Property is AG ¬implJ.sK for a random component J and state K; set it
	// to nil to check deadlock freedom only.
	Property ctl.Formula
}

// NewMulti generates the k-component instance identified by (seed, cfg).
// Component j draws its signals under its own prefixes ("i0_00", "o0_00",
// "i1_00", ...). The instance draws from its own PRNG, so Generate's draw
// order, and with it every single-component corpus, is unaffected. The
// nondeterministic knobs of cfg are rejected: the multi-component loop is
// deterministic only.
func NewMulti(seed int64, cfg Config, k int) (*MultiInstance, error) {
	if k < 1 {
		return nil, fmt.Errorf("gen: need at least one component, got %d", k)
	}
	if cfg.OutputRace > 0 || cfg.DupSuccessor > 0 || cfg.LossyOutput > 0 {
		return nil, fmt.Errorf("gen: multi-component instances must be deterministic")
	}
	r := seeded(seed)
	defer rngs.Put(r)
	cfg = cfg.withDefaults()
	inst := &MultiInstance{Seed: seed, Cfg: cfg}
	ins, outs := automata.EmptySet, automata.EmptySet
	for j := 0; j < k; j++ {
		alpha := alphabetFor(fmt.Sprintf("i%d_", j), fmt.Sprintf("o%d_", j), cfg.Inputs, cfg.Outputs)
		inst.Legacies = append(inst.Legacies, genLegacy(r, cfg, fmt.Sprintf("%s%d", LegacyName, j), alpha))
		ins, outs = ins.Union(alpha.ins), outs.Union(alpha.outs)
	}
	// One context over the union alphabet. Composing per-pair contexts with
	// the binary Compose would not do: that is closed composition, so the
	// product would keep only the pairs' τ steps.
	inst.Context = genContext(r, cfg, newAlphabet(ins, outs))
	j := r.Intn(k)
	state := r.Intn(inst.Legacies[j].NumStates())
	inst.Property = ctl.AG(ctl.Not(ctl.Atom(automata.Proposition(fmt.Sprintf("%s%d.s%d", LegacyName, j, state)))))
	return inst, nil
}

// Interfaces returns the structural interfaces of the legacy components.
func (inst *MultiInstance) Interfaces() []legacy.Interface {
	ifaces := make([]legacy.Interface, len(inst.Legacies))
	for j, a := range inst.Legacies {
		ifaces[j] = legacy.Interface{Name: a.Name(), Inputs: a.Inputs(), Outputs: a.Outputs()}
	}
	return ifaces
}

// Components wraps every ground truth as a fresh black-box component.
func (inst *MultiInstance) Components() ([]legacy.Component, error) {
	comps := make([]legacy.Component, len(inst.Legacies))
	for j, a := range inst.Legacies {
		c, err := legacy.WrapAutomaton(a)
		if err != nil {
			return nil, err
		}
		comps[j] = c
	}
	return comps, nil
}

// TrueComposition composes the context with every ground truth's
// reachable behavior under the n-ary product of Definition 3: the real
// integrated system M_a^c ‖ M_r^0 ‖ … ‖ M_r^{k-1}, labeled like the
// learned models ("implJ.sK"). Each behavior is read off M_r^j as
// Instance.Truth reads it, byte for byte what black-box exploration of the
// wrapped component returns.
func (inst *MultiInstance) TrueComposition() (*automata.Automaton, error) {
	parts := []*automata.Automaton{inst.Context}
	for _, a := range inst.Legacies {
		if _, err := legacy.WrapAutomaton(a); err != nil {
			return nil, err
		}
		parts = append(parts, behavior(a, a.Name()))
	}
	return automata.ComposeAll("truth", parts...)
}

// Summary renders the instance sizes for log lines.
func (inst *MultiInstance) Summary() string {
	prop := "¬δ only"
	if inst.Property != nil {
		prop = inst.Property.String()
	}
	s := fmt.Sprintf("seed %d: ctx |S|=%d |T|=%d", inst.Seed, inst.Context.NumStates(), inst.Context.NumTransitions())
	for _, a := range inst.Legacies {
		s += fmt.Sprintf(", %s |S|=%d |T|=%d", a.Name(), a.NumStates(), a.NumTransitions())
	}
	return s + ", φ: " + prop
}
