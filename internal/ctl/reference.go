package ctl

import (
	"fmt"

	"muml/internal/automata"
)

// Reference is the frozen pre-bitset explicit-state checker: per-state
// []bool satisfaction sets, [][]Transition reverse adjacency, and
// sweep-to-stabilization greatest fixpoints. It exists as the differential
// oracle for the bitset Checker — the two must agree on every verdict,
// satisfaction set, counterexample, and witness — and as the baseline of
// the BENCH_ctl speedup measurements. It keeps the legacy scratch pools so
// benchmark comparisons measure the algorithms, not allocator noise. It
// has no context support and no instrumentation; production call sites use
// Checker.
type Reference struct {
	auto      *automata.Automaton
	sat       map[Formula][]bool
	pred      [][]automata.Transition // reverse adjacency, built lazily
	predBuilt bool

	boolPool [][]bool           // scratch layers for the bounded operators
	intPool  [][]int            // remaining-successor counters
	queue    []automata.StateID // reused BFS worklist
	scratch  searchScratch      // counterexample search buffers
}

// NewReference creates a frozen legacy checker for the automaton.
func NewReference(a *automata.Automaton) *Reference {
	return &Reference{auto: a, sat: make(map[Formula][]bool)}
}

// Rebind points the reference checker at a changed automaton, dropping
// cached satisfaction sets but keeping buffer capacity (legacy behavior).
func (c *Reference) Rebind(a *automata.Automaton) {
	c.auto = a
	clear(c.sat)
	c.predBuilt = false
}

// Automaton returns the automaton under analysis.
func (c *Reference) Automaton() *automata.Automaton { return c.auto }

// canceled implements satEngine; the reference engine is never bounded by
// a context.
func (c *Reference) canceled() bool { return false }

// search implements satEngine: the engine's counterexample search buffers.
func (c *Reference) search() *searchScratch { return &c.scratch }

// Holds reports whether the formula holds in every initial state.
func (c *Reference) Holds(f Formula) bool { return holdsOn(c, f) }

// Check is the legacy-engine Check (same extraction code as Checker).
func (c *Reference) Check(f Formula) Result { return checkOn(c, f) }

// CheckMany is the legacy-engine CheckMany.
func (c *Reference) CheckMany(f Formula, max int) []Result { return checkManyOn(c, f, max) }

// Witness is the legacy-engine Witness.
func (c *Reference) Witness(f Formula) (*automata.Run, error) { return witnessOn(c, f) }

// getBool borrows an n-sized false-initialized scratch slice.
func (c *Reference) getBool(n int) []bool {
	if k := len(c.boolPool); k > 0 {
		buf := c.boolPool[k-1]
		c.boolPool = c.boolPool[:k-1]
		if cap(buf) >= n {
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]bool, n)
}

func (c *Reference) putBool(buf []bool) {
	c.boolPool = append(c.boolPool, buf)
}

// getInt borrows an n-sized zero-initialized counter slice.
func (c *Reference) getInt(n int) []int {
	if k := len(c.intPool); k > 0 {
		buf := c.intPool[k-1]
		c.intPool = c.intPool[:k-1]
		if cap(buf) >= n {
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]int, n)
}

func (c *Reference) putInt(buf []int) {
	c.intPool = append(c.intPool, buf)
}

// Sat returns the satisfaction set of the formula as a boolean slice
// indexed by state ID, computed with the legacy per-state algorithms. The
// returned slice is shared with the cache and must not be mutated.
func (c *Reference) Sat(f Formula) []bool {
	if cached, ok := c.sat[f]; ok {
		return cached
	}
	var sat []bool
	n := c.auto.NumStates()
	switch node := f.(type) {
	case trueNode:
		sat = trues(n)
	case falseNode:
		sat = make([]bool, n)
	case deadlockNode:
		sat = make([]bool, n)
		for i := 0; i < n; i++ {
			sat[i] = c.auto.IsDeadlock(automata.StateID(i))
		}
	case *atomNode:
		sat = make([]bool, n)
		for i := 0; i < n; i++ {
			sat[i] = c.auto.HasLabel(automata.StateID(i), node.p)
		}
	case *notNode:
		inner := c.Sat(node.f)
		sat = make([]bool, n)
		for i := range sat {
			sat[i] = !inner[i]
		}
	case *andNode:
		l, r := c.Sat(node.l), c.Sat(node.r)
		sat = make([]bool, n)
		for i := range sat {
			sat[i] = l[i] && r[i]
		}
	case *orNode:
		l, r := c.Sat(node.l), c.Sat(node.r)
		sat = make([]bool, n)
		for i := range sat {
			sat[i] = l[i] || r[i]
		}
	case *impNode:
		l, r := c.Sat(node.l), c.Sat(node.r)
		sat = make([]bool, n)
		for i := range sat {
			sat[i] = !l[i] || r[i]
		}
	case *axNode:
		sat = c.preAll(c.Sat(node.f))
	case *exNode:
		sat = c.preSome(c.Sat(node.f))
	case *afNode:
		if node.bound != nil {
			sat = c.boundedAF(c.Sat(node.f), *node.bound)
		} else {
			sat = c.unboundedAF(c.Sat(node.f))
		}
	case *efNode:
		if node.bound != nil {
			sat = c.boundedEF(c.Sat(node.f), *node.bound)
		} else {
			sat = c.unboundedEF(c.Sat(node.f))
		}
	case *agNode:
		if node.bound != nil {
			sat = c.boundedAG(c.Sat(node.f), *node.bound)
		} else {
			sat = c.unboundedAG(c.Sat(node.f))
		}
	case *egNode:
		if node.bound != nil {
			sat = c.boundedEG(c.Sat(node.f), *node.bound)
		} else {
			sat = c.unboundedEG(c.Sat(node.f))
		}
	case *auNode:
		sat = c.unboundedAU(c.Sat(node.l), c.Sat(node.r))
	case *euNode:
		sat = c.unboundedEU(c.Sat(node.l), c.Sat(node.r))
	default:
		panic(fmt.Sprintf("ctl: unknown formula node %T", f))
	}
	c.sat[f] = sat
	return sat
}

// preAll returns {s | s has no successor, or all successors satisfy X}.
func (c *Reference) preAll(x []bool) []bool {
	n := c.auto.NumStates()
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = true
		for _, t := range c.auto.TransitionsFrom(automata.StateID(i)) {
			if !x[t.To] {
				out[i] = false
				break
			}
		}
	}
	return out
}

// preSome returns {s | some successor satisfies X}.
func (c *Reference) preSome(x []bool) []bool {
	n := c.auto.NumStates()
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		for _, t := range c.auto.TransitionsFrom(automata.StateID(i)) {
			if x[t.To] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// unboundedEF computes μX. f ∨ EX X by backward reachability.
func (c *Reference) unboundedEF(f []bool) []bool {
	out := cloneBools(f)
	c.buildPred()
	queue := c.queue[:0]
	for i, ok := range out {
		if ok {
			queue = append(queue, automata.StateID(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range c.pred[s] {
			if !out[t.From] {
				out[t.From] = true
				queue = append(queue, t.From)
			}
		}
	}
	c.queue = queue
	return out
}

// unboundedAF computes μX. f ∨ (¬deadlock ∧ AX X) with a worklist over
// remaining-successor counters.
func (c *Reference) unboundedAF(f []bool) []bool {
	n := c.auto.NumStates()
	out := cloneBools(f)
	remaining := c.getInt(n)
	c.buildPred()
	queue := c.queue[:0]
	for i := 0; i < n; i++ {
		remaining[i] = len(c.auto.TransitionsFrom(automata.StateID(i)))
		if out[i] {
			queue = append(queue, automata.StateID(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range c.pred[s] {
			remaining[t.From]--
			if !out[t.From] && remaining[t.From] == 0 &&
				len(c.auto.TransitionsFrom(t.From)) > 0 {
				out[t.From] = true
				queue = append(queue, t.From)
			}
		}
	}
	c.queue = queue
	c.putInt(remaining)
	return out
}

// unboundedAG computes νX. f ∧ AX X by sweeping to stabilization.
func (c *Reference) unboundedAG(f []bool) []bool {
	out := cloneBools(f)
	for changed := true; changed; {
		changed = false
		for i := range out {
			if !out[i] {
				continue
			}
			for _, t := range c.auto.TransitionsFrom(automata.StateID(i)) {
				if !out[t.To] {
					out[i] = false
					changed = true
					break
				}
			}
		}
	}
	return out
}

// unboundedEG computes νX. f ∧ (deadlock ∨ EX X) by sweeping to
// stabilization.
func (c *Reference) unboundedEG(f []bool) []bool {
	out := cloneBools(f)
	for changed := true; changed; {
		changed = false
		for i := range out {
			if !out[i] {
				continue
			}
			s := automata.StateID(i)
			if c.auto.IsDeadlock(s) {
				continue
			}
			keep := false
			for _, t := range c.auto.TransitionsFrom(s) {
				if out[t.To] {
					keep = true
					break
				}
			}
			if !keep {
				out[i] = false
				changed = true
			}
		}
	}
	return out
}

// unboundedEU computes μX. g ∨ (f ∧ EX X).
func (c *Reference) unboundedEU(f, g []bool) []bool {
	out := cloneBools(g)
	c.buildPred()
	queue := c.queue[:0]
	for i, ok := range out {
		if ok {
			queue = append(queue, automata.StateID(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range c.pred[s] {
			if !out[t.From] && f[t.From] {
				out[t.From] = true
				queue = append(queue, t.From)
			}
		}
	}
	c.queue = queue
	return out
}

// unboundedAU computes μX. g ∨ (f ∧ ¬deadlock ∧ AX X).
func (c *Reference) unboundedAU(f, g []bool) []bool {
	n := c.auto.NumStates()
	out := cloneBools(g)
	remaining := c.getInt(n)
	c.buildPred()
	queue := c.queue[:0]
	for i := 0; i < n; i++ {
		remaining[i] = len(c.auto.TransitionsFrom(automata.StateID(i)))
		if out[i] {
			queue = append(queue, automata.StateID(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range c.pred[s] {
			remaining[t.From]--
			if !out[t.From] && remaining[t.From] == 0 && f[t.From] &&
				len(c.auto.TransitionsFrom(t.From)) > 0 {
				out[t.From] = true
				queue = append(queue, t.From)
			}
		}
	}
	c.queue = queue
	c.putInt(remaining)
	return out
}

// boundedAF computes AF[lo,hi] f by backward induction over remaining
// depth j = hi..0.
func (c *Reference) boundedAF(f []bool, b Bound) []bool {
	n := c.auto.NumStates()
	next := c.getBool(n)
	cur := c.getBool(n)
	for j := b.Hi; j >= 0; j-- {
		for i := 0; i < n; i++ {
			s := automata.StateID(i)
			if j >= b.Lo && f[i] {
				cur[i] = true
				continue
			}
			cur[i] = false
			if j < b.Hi && !c.auto.IsDeadlock(s) {
				all := true
				for _, t := range c.auto.TransitionsFrom(s) {
					if !next[t.To] {
						all = false
						break
					}
				}
				cur[i] = all
			}
		}
		cur, next = next, cur
	}
	out := cloneBools(next)
	c.putBool(next)
	c.putBool(cur)
	return out
}

// boundedEF computes EF[lo,hi] f analogously.
func (c *Reference) boundedEF(f []bool, b Bound) []bool {
	n := c.auto.NumStates()
	next := c.getBool(n)
	cur := c.getBool(n)
	for j := b.Hi; j >= 0; j-- {
		for i := 0; i < n; i++ {
			s := automata.StateID(i)
			cur[i] = j >= b.Lo && f[i]
			if !cur[i] && j < b.Hi {
				for _, t := range c.auto.TransitionsFrom(s) {
					if next[t.To] {
						cur[i] = true
						break
					}
				}
			}
		}
		cur, next = next, cur
	}
	out := cloneBools(next)
	c.putBool(next)
	c.putBool(cur)
	return out
}

// boundedAG computes AG[lo,hi] f.
func (c *Reference) boundedAG(f []bool, b Bound) []bool {
	n := c.auto.NumStates()
	next := fillTrue(c.getBool(n))
	cur := c.getBool(n)
	for j := b.Hi; j >= 0; j-- {
		for i := 0; i < n; i++ {
			s := automata.StateID(i)
			ok := j < b.Lo || f[i]
			if ok && j < b.Hi {
				for _, t := range c.auto.TransitionsFrom(s) {
					if !next[t.To] {
						ok = false
						break
					}
				}
			}
			cur[i] = ok
		}
		cur, next = next, cur
	}
	out := cloneBools(next)
	c.putBool(next)
	c.putBool(cur)
	return out
}

// boundedEG computes EG[lo,hi] f.
func (c *Reference) boundedEG(f []bool, b Bound) []bool {
	n := c.auto.NumStates()
	next := fillTrue(c.getBool(n))
	cur := c.getBool(n)
	for j := b.Hi; j >= 0; j-- {
		for i := 0; i < n; i++ {
			s := automata.StateID(i)
			ok := j < b.Lo || f[i]
			if ok && j < b.Hi && !c.auto.IsDeadlock(s) {
				some := false
				for _, t := range c.auto.TransitionsFrom(s) {
					if next[t.To] {
						some = true
						break
					}
				}
				ok = some
			}
			cur[i] = ok
		}
		cur, next = next, cur
	}
	out := cloneBools(next)
	c.putBool(next)
	c.putBool(cur)
	return out
}

// buildPred (re)builds the reverse adjacency the legacy way: per-state
// transition rows appended into reusable backing arrays.
func (c *Reference) buildPred() {
	if c.predBuilt {
		return
	}
	n := c.auto.NumStates()
	if cap(c.pred) < n {
		grown := make([][]automata.Transition, n)
		copy(grown, c.pred)
		c.pred = grown
	} else {
		c.pred = c.pred[:n]
	}
	for i := range c.pred {
		c.pred[i] = c.pred[i][:0]
	}
	for i := 0; i < n; i++ {
		for _, t := range c.auto.TransitionsFrom(automata.StateID(i)) {
			c.pred[t.To] = append(c.pred[t.To], t)
		}
	}
	c.predBuilt = true
}
