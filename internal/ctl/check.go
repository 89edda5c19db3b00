package ctl

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"muml/internal/automata"
	"muml/internal/obs"
)

// Checker evaluates CCTL formulas over one automaton (typically a parallel
// composition). Satisfaction sets are word-parallel bitsets ([]uint64 with
// bulk AND/OR/ANDNOT), the transition relation is walked through the
// automaton's CSR snapshot (contiguous forward and reverse adjacency), and
// the unbounded fixpoints are frontier-driven: each state is processed a
// constant number of times instead of once per stabilization sweep. The
// checker caches satisfaction sets per subformula, so evaluating several
// formulas over the same automaton reuses work, and it can be Rebound when
// the automaton changes, keeping its allocations across verification
// rounds. A checker runs on its caller's goroutine: the products it sees
// hold tens to a few hundred states, so parallelism lives one level up,
// across instances in the batch pool. The frozen pre-bitset engine
// survives as Reference for differential testing and benchmarking.
type Checker struct {
	auto *automata.Automaton
	csr  *automata.CSR // fetched lazily from auto; dropped on Rebind
	n    int           // csr.NumStates(), the width of every bitset

	sat      map[Formula]bitset // satisfaction sets, per subformula
	satBools map[Formula][]bool // []bool materializations for Sat callers

	deadlocks    bitset // states with no outgoing transitions
	deadlocksSet bool

	bitsPool []bitset // scratch bitsets (bounded layers, AG complements)
	intPool  [][]int32
	boolPool [][]bool // Sat materializations released by Rebind
	queue    []int32  // reused frontier worklists
	next     []int32
	scratch  searchScratch // counterexample search buffers

	// ctx, when non-nil, bounds the current evaluation: fixpoint loops
	// poll it (rate-limited by polls) and unwind early once it is done.
	// ctxErr latches the first observed error so partial satisfaction
	// sets are never cached and entry points can report the abort.
	ctx    context.Context
	ctxErr error
	polls  int

	// wordsScanned tallies bitset words produced by sweep and bounded
	// operators over this checker's lifetime, independent of the shared
	// registry counter: the registry aggregates across a whole batch,
	// while this field is the per-instance figure the cost ledger reads
	// via WordsScanned.
	wordsScanned int64

	// Optional instrumentation (see Instrument); nil counters are no-ops,
	// so the uninstrumented checker pays one branch per update site.
	mFixpointIters  *obs.Counter   // work units inside fixpoint loops
	mStatesTouched  *obs.Counter   // states visited per operator evaluation
	mPoolHits       *obs.Counter   // scratch buffers served from the pools
	mPoolMisses     *obs.Counter   // scratch buffers freshly allocated
	mSatCacheHits   *obs.Counter   // Sat calls answered from the formula cache
	mChecks         *obs.Counter   // operator evaluations (Sat cache misses)
	mWordsScanned   *obs.Counter   // bitset words produced by sweep operators
	mFrontierStates *obs.Counter   // states expanded by frontier fixpoints
	hCheck          *obs.Histogram // wall time per context-bound evaluation
}

// NewChecker creates a checker for the automaton.
func NewChecker(a *automata.Automaton) *Checker {
	return &Checker{
		auto:     a,
		sat:      make(map[Formula]bitset),
		satBools: make(map[Formula][]bool),
	}
}

// Rebind points the checker at an automaton that has changed (grown in
// place or replaced). Cached satisfaction sets are dropped — they are
// indexed by state and stale after any mutation — but the scratch buffers
// and worklists keep their capacity, so repeated verification rounds over
// a growing system avoid most reallocation. The []bool sets Sat returned
// are reused from here on.
func (c *Checker) Rebind(a *automata.Automaton) {
	c.auto = a
	clear(c.sat)
	for _, b := range c.satBools {
		c.boolPool = append(c.boolPool, b)
	}
	clear(c.satBools)
	c.csr = nil
	c.deadlocksSet = false
}

// Automaton returns the automaton under analysis.
func (c *Checker) Automaton() *automata.Automaton { return c.auto }

// search implements satEngine: the checker's counterexample search buffers.
func (c *Checker) search() *searchScratch { return &c.scratch }

// ensure binds the CSR snapshot (and the state count every bitset is sized
// for). Fetched once per Rebind: the snapshot is only valid until the next
// structural mutation, which is exactly the cache contract of sat.
func (c *Checker) ensure() {
	if c.csr == nil {
		c.csr = c.auto.CSR()
		c.n = c.csr.NumStates()
	}
}

// ctxPollInterval rate-limits context polling inside fixpoint loops: one
// Err() call per this many work units keeps cancellation latency bounded
// without a syscall-adjacent check on every state visit.
const ctxPollInterval = 1024

// bind attaches a context to the checker for one evaluation. The first
// poll happens immediately, so an already-expired deadline aborts before
// any fixpoint work.
func (c *Checker) bind(ctx context.Context) {
	if ctx == context.Background() || ctx == context.TODO() {
		ctx = nil
	}
	c.ctx = ctx
	c.ctxErr = nil
	c.polls = 1
}

func (c *Checker) unbind() { c.ctx = nil }

// canceled reports whether the bound context is done. Sequential fixpoint
// loops call it once per work unit; the actual ctx.Err() poll runs every
// ctxPollInterval calls. With no bound context it is a single branch.
func (c *Checker) canceled() bool {
	if c.ctx == nil {
		return false
	}
	if c.ctxErr != nil {
		return true
	}
	if c.polls--; c.polls > 0 {
		return false
	}
	c.polls = ctxPollInterval
	if err := c.ctx.Err(); err != nil {
		c.ctxErr = err
		return true
	}
	return false
}

// CheckManyCtx is CheckMany under a context: a deadline or cancellation
// aborts long fixpoints promptly and surfaces the context's error. Aborted
// evaluations leave no partial results in the satisfaction cache.
func (c *Checker) CheckManyCtx(ctx context.Context, f Formula, max int) ([]Result, error) {
	c.bind(ctx)
	defer c.unbind()
	defer c.hCheck.Span()()
	res := c.CheckMany(f, max)
	if c.ctxErr != nil {
		return nil, c.ctxErr
	}
	return res, nil
}

// Instrument registers the checker's effort counters in the registry:
// ctl.fixpoint_iters (states expanded or layer cells computed inside
// fixpoint computations), ctl.states_touched (states visited per operator
// evaluation), ctl.pool_hits / ctl.pool_misses (scratch-buffer pool
// behaviour), ctl.sat_cache_hits, ctl.operator_evals, plus the bitset
// engine's ctl.words_scanned (bitset words produced by sweep operators),
// ctl.frontier_states (states expanded by frontier fixpoints), and the
// ctl.check latency histogram (wall time of each context-bound
// evaluation, exposed as the muml_ctl_check_ns bucket family). A nil
// registry detaches the instrumentation.
func (c *Checker) Instrument(r *obs.Registry) {
	c.mFixpointIters = r.Counter("ctl.fixpoint_iters")
	c.mStatesTouched = r.Counter("ctl.states_touched")
	c.mPoolHits = r.Counter("ctl.pool_hits")
	c.mPoolMisses = r.Counter("ctl.pool_misses")
	c.mSatCacheHits = r.Counter("ctl.sat_cache_hits")
	c.mChecks = r.Counter("ctl.operator_evals")
	c.mWordsScanned = r.Counter("ctl.words_scanned")
	c.mFrontierStates = r.Counter("ctl.frontier_states")
	c.hCheck = r.Histogram("ctl.check")
}

// addWords records words produced by a sweep or bounded-layer operator in
// both the checker-local tally and the (batch-wide) registry counter.
func (c *Checker) addWords(n int64) {
	c.wordsScanned += n
	c.mWordsScanned.Add(n)
}

// WordsScanned returns the total bitset words this checker has produced
// across all evaluations — the deterministic model-checking effort figure
// of the cost ledger (identical across batch worker counts and memo
// states, see DESIGN.md §15).
func (c *Checker) WordsScanned() int64 { return c.wordsScanned }

// getBits borrows a zeroed bitset sized for the current automaton.
func (c *Checker) getBits() bitset {
	need := wordsFor(c.n)
	if k := len(c.bitsPool); k > 0 {
		buf := c.bitsPool[k-1]
		c.bitsPool = c.bitsPool[:k-1]
		if cap(buf) >= need {
			c.mPoolHits.Add(1)
			buf = buf[:need]
			buf.zero()
			return buf
		}
	}
	c.mPoolMisses.Add(1)
	return make(bitset, need)
}

func (c *Checker) putBits(b bitset) {
	c.bitsPool = append(c.bitsPool, b)
}

// getInts borrows an n-sized zero-initialized counter slice.
func (c *Checker) getInts(n int) []int32 {
	if k := len(c.intPool); k > 0 {
		buf := c.intPool[k-1]
		c.intPool = c.intPool[:k-1]
		if cap(buf) >= n {
			c.mPoolHits.Add(1)
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	c.mPoolMisses.Add(1)
	return make([]int32, n)
}

func (c *Checker) putInts(buf []int32) {
	c.intPool = append(c.intPool, buf)
}

// deadlockSet returns the bitset of deadlock states, built once per
// Rebind from the CSR out-degrees. The set is owned by the checker.
func (c *Checker) deadlockSet() bitset {
	if !c.deadlocksSet {
		need := wordsFor(c.n)
		if cap(c.deadlocks) >= need {
			c.deadlocks = c.deadlocks[:need]
			c.deadlocks.zero()
		} else {
			c.deadlocks = make(bitset, need)
		}
		for s := 0; s < c.n; s++ {
			if c.csr.OutDegree(s) == 0 {
				c.deadlocks.set(s)
			}
		}
		c.deadlocksSet = true
	}
	return c.deadlocks
}

// Holds reports whether the formula holds in every initial state
// (M ⊨ φ).
func (c *Checker) Holds(f Formula) bool {
	sat := c.satBits(f)
	for _, q := range c.auto.Initial() {
		if !sat.test(int(q)) {
			return false
		}
	}
	return true
}

// Sat returns the satisfaction set of the formula as a boolean slice
// indexed by state ID, materialized from the bitset evaluation. The
// returned slice is shared with the cache and must not be mutated; it is
// valid until the next Rebind, which recycles it.
func (c *Checker) Sat(f Formula) []bool {
	if cached, ok := c.satBools[f]; ok {
		c.mSatCacheHits.Add(1)
		return cached
	}
	bs := c.satBits(f)
	var out []bool
	if k := len(c.boolPool); k > 0 {
		out = c.boolPool[k-1]
		c.boolPool = c.boolPool[:k-1]
	}
	out = slices.Grow(out[:0], c.n)[:c.n]
	for i := range out {
		out[i] = bs.test(i)
	}
	if c.ctxErr == nil {
		c.satBools[f] = out
	}
	return out
}

// satBits evaluates the formula's satisfaction set as a bitset, caching
// per subformula. The returned set is shared with the cache and must not
// be mutated.
func (c *Checker) satBits(f Formula) bitset {
	if cached, ok := c.sat[f]; ok {
		c.mSatCacheHits.Add(1)
		return cached
	}
	c.ensure()
	n := c.n
	if c.canceled() {
		// Unwind without caching: the zero set is wrong in general, but
		// every entry point checks ctxErr before trusting any result.
		return newBitset(n)
	}
	c.mChecks.Add(1)
	c.mStatesTouched.Add(int64(n))
	var sat bitset
	switch node := f.(type) {
	case trueNode:
		sat = newBitset(n)
		sat.fill(n)
	case falseNode:
		sat = newBitset(n)
	case deadlockNode:
		sat = newBitset(n)
		sat.copyFrom(c.deadlockSet())
	case *atomNode:
		sat = c.evalAtom(node.p)
	case *notNode:
		inner := c.satBits(node.f)
		sat = newBitset(n)
		sat.complementOf(inner, n)
	case *andNode:
		sat = newBitset(n)
		sat.copyFrom(c.satBits(node.l))
		sat.and(c.satBits(node.r))
	case *orNode:
		sat = newBitset(n)
		sat.copyFrom(c.satBits(node.l))
		sat.or(c.satBits(node.r))
	case *impNode:
		sat = newBitset(n)
		sat.complementOf(c.satBits(node.l), n)
		sat.or(c.satBits(node.r))
	case *axNode:
		sat = c.preAll(c.satBits(node.f))
	case *exNode:
		sat = c.preSome(c.satBits(node.f))
	case *afNode:
		if node.bound != nil {
			sat = c.boundedAF(c.satBits(node.f), *node.bound)
		} else {
			sat = c.unboundedAF(c.satBits(node.f))
		}
	case *efNode:
		if node.bound != nil {
			sat = c.boundedEF(c.satBits(node.f), *node.bound)
		} else {
			sat = c.unboundedEF(c.satBits(node.f))
		}
	case *agNode:
		if node.bound != nil {
			sat = c.boundedAG(c.satBits(node.f), *node.bound)
		} else {
			sat = c.unboundedAG(c.satBits(node.f))
		}
	case *egNode:
		if node.bound != nil {
			sat = c.boundedEG(c.satBits(node.f), *node.bound)
		} else {
			sat = c.unboundedEG(c.satBits(node.f))
		}
	case *auNode:
		sat = c.unboundedAU(c.satBits(node.l), c.satBits(node.r))
	case *euNode:
		sat = c.unboundedEU(c.satBits(node.l), c.satBits(node.r))
	default:
		panic(fmt.Sprintf("ctl: unknown formula node %T", f))
	}
	if c.ctxErr == nil {
		c.sat[f] = sat
	}
	return sat
}

// evalAtom builds the satisfaction word for an atomic proposition, one
// 64-state word at a time.
func (c *Checker) evalAtom(p automata.Proposition) bitset {
	n := c.n
	out := newBitset(n)
	for w := range out {
		base := w << 6
		lim := min(64, n-base)
		var word uint64
		for k := 0; k < lim; k++ {
			if c.auto.HasLabel(automata.StateID(base+k), p) {
				word |= 1 << uint(k)
			}
		}
		out[w] = word
	}
	c.addWords(int64(len(out)))
	return out
}

// preAll returns {s | s has no successor, or all successors satisfy X}:
// the AX predecessor operator with vacuous truth at deadlocks.
func (c *Checker) preAll(x bitset) bitset {
	n := c.n
	out := newBitset(n)
	csr := c.csr
	for w := range out {
		base := w << 6
		lim := min(64, n-base)
		var word uint64
	states:
		for k := 0; k < lim; k++ {
			for _, t := range csr.Succ(base + k) {
				if !x.test(int(t)) {
					continue states
				}
			}
			word |= 1 << uint(k)
		}
		out[w] = word
	}
	c.addWords(int64(len(out)))
	return out
}

// preSome returns {s | some successor satisfies X}: the EX predecessor
// operator (false at deadlocks).
func (c *Checker) preSome(x bitset) bitset {
	n := c.n
	out := newBitset(n)
	csr := c.csr
	for w := range out {
		base := w << 6
		lim := min(64, n-base)
		var word uint64
		for k := 0; k < lim; k++ {
			for _, t := range csr.Succ(base + k) {
				if x.test(int(t)) {
					word |= 1 << uint(k)
					break
				}
			}
		}
		out[w] = word
	}
	c.addWords(int64(len(out)))
	return out
}

// unboundedEF computes μX. f ∨ EX X by backward reachability: a
// level-synchronous frontier expansion over the reverse CSR. Each state
// enters the frontier at most once, so the fixpoint is O(n + m).
func (c *Checker) unboundedEF(f bitset) bitset {
	out := newBitset(c.n)
	out.copyFrom(f)
	c.frontierFixpoint(out, nil)
	return out
}

// unboundedEU computes μX. g ∨ (f ∧ EX X): backward reachability from g
// restricted to f-states.
func (c *Checker) unboundedEU(f, g bitset) bitset {
	out := newBitset(c.n)
	out.copyFrom(g)
	c.frontierFixpoint(out, f)
	return out
}

// frontierFixpoint grows out to the backward-reachable closure through
// filter-states (nil filter = unrestricted), expanding level by level.
func (c *Checker) frontierFixpoint(out, filter bitset) {
	frontier := out.appendSet(c.queue[:0])
	total := int64(0)
	for len(frontier) > 0 && !c.canceled() {
		total += int64(len(frontier))
		c.mFrontierStates.Add(int64(len(frontier)))
		frontier = c.expandFrontier(out, filter, frontier)
	}
	c.mFixpointIters.Add(total)
	c.queue = frontier
}

// expandFrontier advances one EF/EU level: every predecessor of a frontier
// state that is not yet in out (and passes the filter) enters out and the
// next frontier. Returns the next frontier; the spent frontier's backing
// array is recycled as the following level's buffer.
func (c *Checker) expandFrontier(out, filter bitset, frontier []int32) []int32 {
	next := c.next[:0]
	csr := c.csr
	for _, s := range frontier {
		if c.canceled() {
			break
		}
		for _, p := range csr.Pred(int(s)) {
			if !out.test(int(p)) && (filter == nil || filter.test(int(p))) {
				out.set(int(p))
				next = append(next, p)
			}
		}
	}
	c.next = frontier[:0]
	return next
}

// unboundedAF computes μX. f ∨ (¬deadlock ∧ AX X): every maximal path
// reaches f. A state enters the set when its remaining-successor counter
// hits zero — i.e. when every outgoing transition leads into the set.
func (c *Checker) unboundedAF(f bitset) bitset {
	return c.counterFixpoint(f, nil)
}

// unboundedAU computes μX. g ∨ (f ∧ ¬deadlock ∧ AX X).
func (c *Checker) unboundedAU(f, g bitset) bitset {
	return c.counterFixpoint(g, f)
}

// counterFixpoint is the shared AF/AU least fixpoint: seed states are in;
// a non-seed state enters when all its successors have entered (counter
// reaches zero) and it passes the filter (nil = unrestricted). Deadlock
// states never enter via the counter: their counter starts at zero and is
// never decremented, and entry is triggered only by a decrement.
func (c *Checker) counterFixpoint(seed, filter bitset) bitset {
	n := c.n
	out := newBitset(n)
	out.copyFrom(seed)
	cnt := c.getInts(n)
	csr := c.csr
	for s := 0; s < n; s++ {
		cnt[s] = int32(csr.OutDegree(s))
	}
	frontier := out.appendSet(c.queue[:0])
	total := int64(0)
	for len(frontier) > 0 && !c.canceled() {
		total += int64(len(frontier))
		c.mFrontierStates.Add(int64(len(frontier)))
		frontier = c.expandCounters(out, filter, cnt, frontier)
	}
	c.mFixpointIters.Add(total)
	c.queue = frontier
	c.putInts(cnt)
	return out
}

// expandCounters advances one AF/AU level: each edge into a frontier state
// decrements its source's remaining-successor counter; a source whose
// counter reaches zero (and passes the filter) enters out and the next
// frontier. Deadlock states cannot enter: their counter is never
// decremented.
func (c *Checker) expandCounters(out, filter bitset, cnt []int32, frontier []int32) []int32 {
	next := c.next[:0]
	csr := c.csr
	for _, s := range frontier {
		if c.canceled() {
			break
		}
		for _, p := range csr.Pred(int(s)) {
			if cnt[p]--; cnt[p] == 0 && !out.test(int(p)) &&
				(filter == nil || filter.test(int(p))) {
				out.set(int(p))
				next = append(next, p)
			}
		}
	}
	c.next = frontier[:0]
	return next
}

// unboundedAG computes νX. f ∧ AX X. Under maximal-path semantics a
// deadlock state satisfying f satisfies AG f, and AG f ≡ ¬EF ¬f: a state
// violates AG f iff some ¬f state is reachable from it. Evaluating through
// the EF frontier makes AG O(n + m) instead of one sweep per
// stabilization round.
func (c *Checker) unboundedAG(f bitset) bitset {
	n := c.n
	nf := c.getBits()
	nf.complementOf(f, n)
	out := c.unboundedEF(nf)
	c.putBits(nf)
	out.complementOf(out, n)
	return out
}

// unboundedEG computes νX. f ∧ (deadlock ∨ EX X): some maximal path stays
// in f (a path ending in a deadlock is maximal). Greatest fixpoint by
// deletion: start from the f-states, count each candidate's successors
// inside the candidate set, and cascade removals of non-deadlock states
// whose count reaches zero. Each state is removed at most once, so the
// fixpoint is O(n + m).
func (c *Checker) unboundedEG(f bitset) bitset {
	n := c.n
	out := newBitset(n)
	out.copyFrom(f)
	csr := c.csr
	dead := c.deadlockSet()
	cnt := c.getInts(n)
	for w := range out {
		base := int32(w << 6)
		for word := out[w]; word != 0; word &= word - 1 {
			s := int(base) + bits.TrailingZeros64(word)
			k := int32(0)
			for _, t := range csr.Succ(s) {
				if out.test(int(t)) {
					k++
				}
			}
			cnt[s] = k
		}
	}
	c.addWords(int64(len(out)))
	removal := c.queue[:0]
	for wi, word := range out {
		base := int32(wi << 6)
		for ; word != 0; word &= word - 1 {
			s := base + int32(bits.TrailingZeros64(word))
			if cnt[s] == 0 && !dead.test(int(s)) {
				out.clearBit(int(s))
				removal = append(removal, s)
			}
		}
	}
	for head := 0; head < len(removal) && !c.canceled(); head++ {
		s := removal[head]
		for _, p := range csr.Pred(int(s)) {
			if !out.test(int(p)) {
				continue
			}
			if cnt[p]--; cnt[p] == 0 && !dead.test(int(p)) {
				out.clearBit(int(p))
				removal = append(removal, p)
			}
		}
	}
	c.mFixpointIters.Add(int64(len(removal)))
	c.queue = removal
	c.putInts(cnt)
	return out
}

// boundedAF computes AF[lo,hi] f by backward induction over remaining
// depth j = hi..0: ok(s,j) ⇔ (j ≥ lo ∧ f(s)) ∨ (j < hi ∧ ¬deadlock(s) ∧
// ∀succ ok(succ, j+1)). The result is ok(·, 0). Each layer is one word
// sweep: f and the deadlock set contribute whole words, and only the
// undecided bits scan their successor rows.
//
// Each bounded operator sweeps a layer in a plain function of its own
// (afLayer and its siblings): inlined into the operator's depth loop, the
// successor loop keeps its index and word on the stack.
func (c *Checker) boundedAF(f bitset, b Bound) bitset {
	n := c.n
	next := c.getBits() // ok(·, j+1); starts as the unread j = hi layer input
	cur := c.getBits()
	dead := c.deadlockSet()
	mask := tailMask(n)
	for j := b.Hi; j >= 0 && !c.canceled(); j-- {
		afLayer(cur, next, f, dead, c.csr, mask, j >= b.Lo, j < b.Hi)
		cur, next = next, cur // cur becomes scratch; next holds layer j
	}
	return c.boundedResult(next, cur, b)
}

// afLayer computes layer cur of boundedAF from layer next.
func afLayer(cur, next, f, dead bitset, csr *automata.CSR, mask uint64, jGeLo, jLtHi bool) {
	last := len(cur) - 1
	for w := range cur {
		var word uint64
		if jGeLo {
			word = f[w]
		}
		if jLtHi {
			cand := ^word &^ dead[w]
			if w == last {
				cand &= mask
			}
			base := w << 6
		states:
			for ; cand != 0; cand &= cand - 1 {
				k := bits.TrailingZeros64(cand)
				for _, t := range csr.Succ(base + k) {
					if !next.test(int(t)) {
						continue states
					}
				}
				word |= 1 << uint(k)
			}
		}
		cur[w] = word
	}
}

// boundedEF computes EF[lo,hi] f analogously: ex(s,j) ⇔ (j ≥ lo ∧ f(s)) ∨
// (j < hi ∧ ∃succ ex(succ, j+1)).
func (c *Checker) boundedEF(f bitset, b Bound) bitset {
	next := c.getBits()
	cur := c.getBits()
	mask := tailMask(c.n)
	for j := b.Hi; j >= 0 && !c.canceled(); j-- {
		efLayer(cur, next, f, c.csr, mask, j >= b.Lo, j < b.Hi)
		cur, next = next, cur
	}
	return c.boundedResult(next, cur, b)
}

// efLayer computes layer cur of boundedEF from layer next.
func efLayer(cur, next, f bitset, csr *automata.CSR, mask uint64, jGeLo, jLtHi bool) {
	last := len(cur) - 1
	for w := range cur {
		var word uint64
		if jGeLo {
			word = f[w]
		}
		if jLtHi {
			cand := ^word
			if w == last {
				cand &= mask
			}
			base := w << 6
			for ; cand != 0; cand &= cand - 1 {
				k := bits.TrailingZeros64(cand)
				for _, t := range csr.Succ(base + k) {
					if next.test(int(t)) {
						word |= 1 << uint(k)
						break
					}
				}
			}
		}
		cur[w] = word
	}
}

// boundedAG computes AG[lo,hi] f: ag(s,j) ⇔ (j < lo ∨ f(s)) ∧ (j ≥ hi ∨
// ∀succ ag(succ, j+1)). Paths ending before the window trivially satisfy
// the remainder.
func (c *Checker) boundedAG(f bitset, b Bound) bitset {
	next := c.getBits()
	next.fill(c.n)
	cur := c.getBits()
	mask := tailMask(c.n)
	for j := b.Hi; j >= 0 && !c.canceled(); j-- {
		agLayer(cur, next, f, c.csr, mask, j < b.Lo, j < b.Hi)
		cur, next = next, cur
	}
	return c.boundedResult(next, cur, b)
}

// agLayer computes layer cur of boundedAG from layer next.
func agLayer(cur, next, f bitset, csr *automata.CSR, mask uint64, jLtLo, jLtHi bool) {
	last := len(cur) - 1
	for w := range cur {
		var word uint64
		if jLtLo {
			word = ^uint64(0)
			if w == last {
				word = mask
			}
		} else {
			word = f[w]
		}
		if jLtHi {
			base := w << 6
		states:
			for cand := word; cand != 0; cand &= cand - 1 {
				k := bits.TrailingZeros64(cand)
				for _, t := range csr.Succ(base + k) {
					if !next.test(int(t)) {
						word &^= 1 << uint(k)
						continue states
					}
				}
			}
		}
		cur[w] = word
	}
}

// boundedEG computes EG[lo,hi] f: eg(s,j) ⇔ (j < lo ∨ f(s)) ∧ (j ≥ hi ∨
// deadlock(s) ∨ ∃succ eg(succ, j+1)).
func (c *Checker) boundedEG(f bitset, b Bound) bitset {
	next := c.getBits()
	next.fill(c.n)
	cur := c.getBits()
	dead := c.deadlockSet()
	mask := tailMask(c.n)
	for j := b.Hi; j >= 0 && !c.canceled(); j-- {
		egLayer(cur, next, f, dead, c.csr, mask, j < b.Lo, j < b.Hi)
		cur, next = next, cur
	}
	return c.boundedResult(next, cur, b)
}

// egLayer computes layer cur of boundedEG from layer next.
func egLayer(cur, next, f, dead bitset, csr *automata.CSR, mask uint64, jLtLo, jLtHi bool) {
	last := len(cur) - 1
	for w := range cur {
		var word uint64
		if jLtLo {
			word = ^uint64(0)
			if w == last {
				word = mask
			}
		} else {
			word = f[w]
		}
		if jLtHi {
			base := w << 6
			for cand := word &^ dead[w]; cand != 0; cand &= cand - 1 {
				k := bits.TrailingZeros64(cand)
				some := false
				for _, t := range csr.Succ(base + k) {
					if next.test(int(t)) {
						some = true
						break
					}
				}
				if !some {
					word &^= 1 << uint(k)
				}
			}
		}
		cur[w] = word
	}
}

// boundedResult books the b.Hi+1 layers a bounded operator swept, returns
// a copy of the final layer and releases both layer buffers.
func (c *Checker) boundedResult(final, scratch bitset, b Bound) bitset {
	c.mFixpointIters.Add(int64(b.Hi+1) * int64(c.n))
	c.addWords(int64(b.Hi+1) * int64(len(final)))
	out := newBitset(c.n)
	out.copyFrom(final)
	c.putBits(final)
	c.putBits(scratch)
	return out
}

func trues(n int) []bool {
	return fillTrue(make([]bool, n))
}

func fillTrue(x []bool) []bool {
	for i := range x {
		x[i] = true
	}
	return x
}

func cloneBools(x []bool) []bool {
	out := make([]bool, len(x))
	copy(out, x)
	return out
}
