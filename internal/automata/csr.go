package automata

// This file provides the struct-of-arrays CSR (compressed sparse row) view
// of an automaton's transition structure that the bitset CTL core walks.
// The per-state [][]Transition adjacency is pointer-chasing-hostile in
// fixpoint loops: every state visit loads a slice header and every edge a
// 3-word Transition. The CSR snapshot packs the same structure into four
// flat int32 arrays — forward and reverse adjacency as offset+target
// arrays — so pre-image scans walk contiguous memory and out-degrees are
// O(1) subtractions.
//
// The snapshot is built lazily on first use and cached on the automaton;
// any structural mutation (AddState, AddTransition, or the in-place
// adjacency rewrites of the incremental system) invalidates it. The next
// build writes into the invalidated snapshot's arrays, so a snapshot is
// valid only until the automaton's next structural mutation: a holder
// must drop it then (ctl.Checker does on Rebind). Building the view is
// read-only: it never changes the automaton's fingerprint.

import "sync"

// CSR is an immutable struct-of-arrays snapshot of the transition relation:
// forward adjacency (targets grouped by source, in adjacency order) and
// reverse adjacency (sources grouped by target, in source-then-adjacency
// order). State IDs are int32 — automata here are bounded far below 2³¹
// states — which halves the cache traffic of fixpoint scans.
type CSR struct {
	n       int
	fwdOff  []int32 // len n+1; forward row s is fwdTo[fwdOff[s]:fwdOff[s+1]]
	fwdTo   []int32 // len m; transition targets
	revOff  []int32 // len n+1; reverse row s is revFrom[revOff[s]:revOff[s+1]]
	revFrom []int32 // len m; transition sources
}

// NumStates returns the number of states the snapshot was built over.
func (c *CSR) NumStates() int { return c.n }

// NumEdges returns the number of transitions in the snapshot.
func (c *CSR) NumEdges() int { return len(c.fwdTo) }

// OutDegree returns the number of outgoing transitions of the state.
func (c *CSR) OutDegree(s int) int { return int(c.fwdOff[s+1] - c.fwdOff[s]) }

// Succ returns the successor states of s in adjacency order (shared
// backing array; must not be mutated). Parallel edges appear once per
// transition.
func (c *CSR) Succ(s int) []int32 { return c.fwdTo[c.fwdOff[s]:c.fwdOff[s+1]] }

// Pred returns the predecessor states of s (shared backing array; must
// not be mutated). A predecessor appears once per transition into s.
func (c *CSR) Pred(s int) []int32 { return c.revFrom[c.revOff[s]:c.revOff[s+1]] }

// derivedViews holds the lazily built read-only snapshots of an
// automaton's structure. The mutex only guards cache construction;
// mutating an automaton concurrently with readers is already unsupported.
type derivedViews struct {
	mu  sync.Mutex
	csr *CSR
	// spare is the snapshot the last structural mutation invalidated: the
	// next build reuses its arrays.
	spare *CSR
}

// invalidateDerived drops the cached CSR snapshot.
// Every structural mutation path must call it (AddState/AddTransition do;
// the incremental system calls it after its in-place adjacency rewrites).
func (a *Automaton) invalidateDerived() {
	a.derived.mu.Lock()
	if a.derived.csr != nil {
		a.derived.spare = a.derived.csr
	}
	a.derived.csr = nil
	a.derived.mu.Unlock()
}

// CSR returns the struct-of-arrays transition snapshot, building and
// caching it on first use. The returned view is shared: it must be
// treated as immutable, and it is only valid until the automaton's next
// structural mutation, after which the next build overwrites its arrays.
func (a *Automaton) CSR() *CSR {
	a.derived.mu.Lock()
	defer a.derived.mu.Unlock()
	if a.derived.csr == nil {
		a.derived.csr = buildCSR(a, a.derived.spare)
		a.derived.spare = nil
	}
	return a.derived.csr
}

// buildCSR builds the snapshot of a into a fresh header, over the arrays
// of spare (an invalidated snapshot of a, or nil) where they are large
// enough.
func buildCSR(a *Automaton, spare *CSR) *CSR {
	n := a.NumStates()
	m := 0
	for _, row := range a.adj {
		m += len(row)
	}
	c := &CSR{n: n}
	if spare != nil {
		c.fwdOff, c.fwdTo, c.revOff, c.revFrom = spare.fwdOff, spare.fwdTo, spare.revOff, spare.revFrom
	}
	c.fwdOff = resizeInt32(c.fwdOff, n+1)
	c.fwdTo = resizeInt32(c.fwdTo, m)
	c.revOff = resizeInt32(c.revOff, n+1)
	clear(c.revOff)
	c.revFrom = resizeInt32(c.revFrom, m)
	pos := int32(0)
	for s := 0; s < n; s++ {
		c.fwdOff[s] = pos
		for _, t := range a.adj[s] {
			c.fwdTo[pos] = int32(t.To)
			c.revOff[t.To+1]++
			pos++
		}
	}
	c.fwdOff[n] = pos
	for s := 0; s < n; s++ {
		c.revOff[s+1] += c.revOff[s]
	}
	// Fill reverse rows using the offsets as cursors: each ends at the
	// start of the next row, so shifting them by one restores them.
	for s := 0; s < n; s++ {
		for _, t := range a.adj[s] {
			c.revFrom[c.revOff[t.To]] = int32(s)
			c.revOff[t.To]++
		}
	}
	copy(c.revOff[1:], c.revOff[:n])
	c.revOff[0] = 0
	return c
}

// resizeInt32 returns buf resliced to length n when its capacity allows,
// and otherwise a new slice with a quarter of headroom: the automata whose
// snapshots are rebuilt are the patched products, which grow between
// builds.
func resizeInt32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n, n+n/4)
}
