package rtsc

import (
	"fmt"
	"sort"
	"strings"

	"muml/internal/automata"
)

// FlattenOption configures Flatten.
type FlattenOption interface{ applyFlatten(*flattenConfig) }

type flattenOptionFunc func(*flattenConfig)

func (f flattenOptionFunc) applyFlatten(c *flattenConfig) { f(c) }

type flattenConfig struct {
	labelStates bool
}

// WithStateLabels labels every flattened state with "chart.state"
// propositions for the leaf and each of its ancestors, so pattern
// constraints such as "frontRole.noConvoy" apply to all substates of
// noConvoy.
func WithStateLabels() FlattenOption {
	return flattenOptionFunc(func(c *flattenConfig) { c.labelStates = true })
}

// Flatten maps the statechart to a discrete-time I/O automaton:
//
//   - automaton states are pairs (leaf configuration, clock valuation),
//     named "outer::leaf" or "outer::leaf@c=2" when clocks are present;
//   - every automaton transition consumes one time unit: firing a chart
//     transition consumes its trigger (input), produces its raised events
//     (outputs), resets its clocks, and advances all other clocks by one;
//   - an idle step (no I/O) advances all clocks by one and is available
//     unless the state is urgent or the invariant would be violated;
//   - transitions inherited from ancestor states fire from any descendant
//     leaf; composite targets are entered down to their initial leaves;
//   - clock values are capped at one above the largest compared constant
//     (larger values are indistinguishable), keeping the automaton finite.
//
// The input alphabet is the set of trigger events; the output alphabet the
// set of raised events.
func (c *Chart) Flatten(opts ...FlattenOption) (*automata.Automaton, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var cfg flattenConfig
	for _, o := range opts {
		o.applyFlatten(&cfg)
	}

	c.expandAfter()
	clocks := c.Clocks()
	caps := c.clockCaps(clocks)

	var inputs, outputs []automata.Signal
	for _, t := range c.trans {
		if t.Trigger != "" {
			inputs = append(inputs, t.Trigger)
		}
		outputs = append(outputs, t.Raise...)
	}
	a := automata.New(c.name, automata.NewSignalSet(inputs...), automata.NewSignalSet(outputs...))
	if !a.Inputs().Disjoint(a.Outputs()) {
		return nil, fmt.Errorf("rtsc: %q: events %v are both triggered and raised",
			c.name, a.Inputs().Intersect(a.Outputs()))
	}

	type config struct {
		leaf string
		val  string // canonical clock valuation key
	}
	ids := make(map[config]automata.StateID)
	var queue []struct {
		cfg config
		v   map[Clock]int
	}

	addConfig := func(leaf string, v map[Clock]int) automata.StateID {
		key := config{leaf: leaf, val: valKey(clocks, v)}
		if id, ok := ids[key]; ok {
			return id
		}
		name := c.qualifiedName(leaf)
		if len(clocks) > 0 {
			name += "@" + key.val
		}
		var labels []automata.Proposition
		if cfg.labelStates {
			for _, anc := range c.path(leaf) {
				labels = append(labels, automata.Proposition(c.name+"."+anc))
			}
			labels = append(labels, automata.Proposition(c.name+"."+c.qualifiedName(leaf)))
			labels = dedupe(labels)
		}
		id := a.MustAddState(name, labels...)
		ids[key] = id
		queue = append(queue, struct {
			cfg config
			v   map[Clock]int
		}{key, cloneVal(v)})
		return id
	}

	initLeafTop, err := c.initialChild("")
	if err != nil {
		return nil, err
	}
	initLeaf, err := c.leafOf(initLeafTop)
	if err != nil {
		return nil, err
	}
	initVal := make(map[Clock]int, len(clocks))
	a.MarkInitial(addConfig(initLeaf, initVal))

	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		from := ids[cur.cfg]
		leaf := cur.cfg.leaf
		v := cur.v

		ancestors := make(map[string]bool)
		for _, anc := range c.path(leaf) {
			ancestors[anc] = true
		}

		// Chart transitions applicable at this leaf.
		for _, t := range c.trans {
			if !ancestors[t.From] {
				continue
			}
			if !allHold(t.Guard, v) {
				continue
			}
			targetLeaf, err := c.leafOf(t.To)
			if err != nil {
				return nil, err
			}
			next := advance(clocks, v, caps, t.Resets)
			if !c.invariantHolds(targetLeaf, next) {
				continue
			}
			label := automata.Interaction{Out: automata.NewSignalSet(t.Raise...)}
			if t.Trigger != "" {
				label.In = automata.NewSignalSet(t.Trigger)
			}
			to := addConfig(targetLeaf, next)
			// Two chart transitions may flatten to the same automaton
			// transition (e.g. from different ancestors); ignore dupes.
			_ = a.AddTransition(from, label, to)
		}

		// Idle step.
		if !c.states[leaf].urgent && !c.anyAncestorUrgent(leaf) {
			next := advance(clocks, v, caps, nil)
			if c.invariantHolds(leaf, next) {
				to := addConfig(leaf, next)
				_ = a.AddTransition(from, automata.Interaction{}, to)
			}
		}
	}
	return a, nil
}

// MustFlatten is Flatten but panics on error.
func (c *Chart) MustFlatten(opts ...FlattenOption) *automata.Automaton {
	a, err := c.Flatten(opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// expandAfter rewrites every After(d) annotation into a guard over an
// implicit per-source-state clock ("@<state>") that is reset by every
// transition entering the source state (directly, via an ancestor target
// whose initial descent passes through it, or via a descendant target).
// Idempotent: After fields are cleared once expanded.
func (c *Chart) expandAfter() {
	type need struct{ state string }
	var needed []need
	for i := range c.trans {
		if c.trans[i].After > 0 {
			needed = append(needed, need{state: c.trans[i].From})
		}
	}
	if len(needed) == 0 {
		return
	}
	entryClock := func(state string) Clock { return Clock("@" + state) }

	// Ensure children lists are current for leafOf/path.
	if err := c.Validate(); err != nil {
		// Flatten will surface the validation error; leave charts as-is.
		return
	}
	for _, n := range needed {
		clock := entryClock(n.state)
		c.clocks[clock] = struct{}{}
		for i := range c.trans {
			t := &c.trans[i]
			if t.After > 0 && t.From == n.state {
				t.Guard = append(t.Guard, Constraint{Clock: clock, Op: CmpGE, Bound: t.After})
			}
			// Reset the entry clock whenever the transition *enters* the
			// annotated state: its target configuration passes through
			// the state and its source lies outside (or it is an explicit
			// self-transition on the state, which per UML semantics exits
			// and re-enters). Transitions between descendants of the
			// state are internal and keep the clock running.
			leaf, err := c.leafOf(t.To)
			if err != nil {
				continue
			}
			entersTarget := false
			for _, anc := range c.path(leaf) {
				if anc == n.state {
					entersTarget = true
				}
			}
			if !entersTarget {
				continue
			}
			sourceInside := false
			for _, anc := range c.path(t.From) {
				if anc == n.state {
					sourceInside = true
				}
			}
			if !sourceInside || t.From == n.state {
				t.Resets = append(t.Resets, clock)
			}
		}
	}
	for i := range c.trans {
		c.trans[i].After = 0
	}
}

// invariantHolds checks the invariants of the leaf and all its ancestors.
func (c *Chart) invariantHolds(leaf string, v map[Clock]int) bool {
	for _, anc := range c.path(leaf) {
		if !allHold(c.states[anc].invariant, v) {
			return false
		}
	}
	return true
}

func (c *Chart) anyAncestorUrgent(leaf string) bool {
	for _, anc := range c.path(leaf) {
		if c.states[anc].urgent {
			return true
		}
	}
	return false
}

// clockCaps computes, per clock, the cap beyond which values are
// indistinguishable: one above the largest constant it is compared to.
func (c *Chart) clockCaps(clocks []Clock) map[Clock]int {
	caps := make(map[Clock]int, len(clocks))
	for _, cl := range clocks {
		caps[cl] = 0
	}
	consider := func(cs []Constraint) {
		for _, con := range cs {
			if con.Bound > caps[con.Clock] {
				caps[con.Clock] = con.Bound
			}
		}
	}
	for _, t := range c.trans {
		consider(t.Guard)
	}
	for _, name := range c.order {
		consider(c.states[name].invariant)
	}
	for _, cl := range clocks {
		caps[cl]++
	}
	return caps
}

func allHold(cs []Constraint, v map[Clock]int) bool {
	for _, con := range cs {
		if !con.holds(v) {
			return false
		}
	}
	return true
}

// advance returns the valuation after one time unit with the given resets
// applied (resets win over the increment: a reset clock reads 0 in the
// target state).
func advance(clocks []Clock, v map[Clock]int, caps map[Clock]int, resets []Clock) map[Clock]int {
	next := make(map[Clock]int, len(clocks))
	for _, cl := range clocks {
		val := v[cl] + 1
		if val > caps[cl] {
			val = caps[cl]
		}
		next[cl] = val
	}
	for _, cl := range resets {
		next[cl] = 0
	}
	return next
}

func cloneVal(v map[Clock]int) map[Clock]int {
	out := make(map[Clock]int, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

func valKey(clocks []Clock, v map[Clock]int) string {
	parts := make([]string, len(clocks))
	for i, cl := range clocks {
		parts[i] = fmt.Sprintf("%s=%d", cl, v[cl])
	}
	return strings.Join(parts, ",")
}

func dedupe(ps []automata.Proposition) []automata.Proposition {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}
