package automata

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"muml/internal/obs"
)

// MemoCache memoizes chaotic closures across independent synthesis
// instances. A key is the structural fingerprint of the learned model with
// that of the compiled universe (see Fingerprint); since the closure is a
// pure function of exactly the fingerprinted structure, a hit may
// substitute the cached result for a rebuild. The synthesis loop looks a
// closure up only when it builds its system from scratch, because later
// closures are patched (IncrementalSystem): that is its first iteration
// and the rare rebuild fallbacks, on deterministic and nondeterministic
// models alike.
//
// Coherence: masters stored in the cache are immutable, and every hit
// hands out a copy-on-write clone (see shareRows): its own state table,
// name index and row table, sharing the master's adjacency rows and
// per-state label and part slices with their capacity capped. Appending to
// a shared slice therefore copies it first, and nothing writes a
// handed-out row in place — IncrementalSystem derives a closure row a
// patch changed as a fresh one (IncrementalSystem.Closure). A hit costs
// no transition copy, however large the closure.
//
// The cache is sharded by key hash: concurrent batch workers hit different
// shard mutexes, and each shard's critical section is a single map
// operation (cloning happens outside the lock).
//
// A nil *MemoCache is a valid disabled cache: Lookup always misses and
// Store is a no-op, so construction sites thread an optional cache without
// branching.
//
// A cache counts the hits and misses of its own lookups (Stats). A handle
// (Handle) shares everything else with the cache it was taken from and
// also counts its lookups there.
type MemoCache struct {
	*memoShared
	hits   atomic.Int64
	misses atomic.Int64
	// parent is the cache this one is a handle of, or nil.
	parent *MemoCache
}

// memoShared is what a cache and its handles share.
type memoShared struct {
	shards  [memoShardCount]memoShard
	journal *obs.Journal // set at construction; may be nil
	// backend, when non-nil, is the second-level persistent store: memory
	// misses fall through to it, and stores write through so a later
	// process warm-starts from disk (see SetBackend).
	backend MemoBackend
	// universes holds the compiled interaction universes (see Universe),
	// keyed by universeKey.
	universes sync.Map
}

// universeKey identifies a predefined universe over one pair of alphabets
// (the alphabets' canonical SignalSet keys).
type universeKey struct {
	kind    universeKind
	in, out string
}

// MemoBackend is a second-level store layered under the in-memory cache —
// typically the content-addressed on-disk store of internal/memostore.
// The cache consults it on an in-memory miss and writes every freshly
// stored construction through to it, so overlapping jobs in other
// processes and restarts of this one warm-start instead of recomputing.
//
// Payloads are opaque to the backend: the cache serializes automata with
// MarshalMemo/UnmarshalMemo, and the backend is only responsible for
// durable, integrity-checked storage of the bytes. Implementations must
// be safe for concurrent use.
type MemoBackend interface {
	// Load returns the payload stored under the key, or false. A backend
	// must never return bytes that fail its integrity check — corrupt
	// records are evicted and reported as misses.
	Load(op string, a, b uint64) ([]byte, bool)
	// Save persists the payload under the key. The first save for a key
	// wins; duplicate saves are identical by construction and may be
	// dropped.
	Save(op string, a, b uint64, payload []byte)
}

const memoShardCount = 16

type memoShard struct {
	mu sync.Mutex
	m  map[memoKey]*Automaton
}

// memoOp names the memoized construction to the backend: store records
// are "closure-<a>-<b>.memo".
const memoOp = "closure"

type memoKey struct {
	a, b uint64
}

// NewMemoCache creates an empty cache. The journal, when non-nil, receives
// one cache_hit event per Lookup hit (s: op; n: key_a, key_b, hits); pass
// nil for an unobserved cache.
func NewMemoCache(journal *obs.Journal) *MemoCache {
	c := &MemoCache{memoShared: &memoShared{journal: journal}}
	for i := range c.shards {
		c.shards[i].m = make(map[memoKey]*Automaton)
	}
	return c
}

// Handle returns a view of the cache that shares its entries, backend and
// compiled universes and counts its own lookups: its Stats report only the
// lookups made through it, and every one of them also counts in c's. The
// batch engine gives each instance a handle, so an instance's ledger holds
// its own lookups however many instances run at once. A nil cache's handle
// is nil.
func (c *MemoCache) Handle() *MemoCache {
	if c == nil {
		return nil
	}
	return &MemoCache{memoShared: c.memoShared, parent: c}
}

// count records a lookup in the cache and every cache it is a handle of,
// and returns the hit count of the last of them, the cache the handles
// were taken from (zero on a miss).
func (c *MemoCache) count(hit bool) (hits int64) {
	for m := c; m != nil; m = m.parent {
		if hit {
			hits = m.hits.Add(1)
		} else {
			m.misses.Add(1)
		}
	}
	return hits
}

// SetBackend attaches the persistent second-level store. Call it once,
// before the cache is shared across goroutines; a nil backend leaves the
// cache memory-only.
func (c *MemoCache) SetBackend(b MemoBackend) {
	if c == nil {
		return
	}
	c.backend = b
}

func (c *MemoCache) shard(k memoKey) *memoShard {
	return &c.shards[(k.a^k.b)%memoShardCount]
}

// lookup returns a copy-on-write clone of the cached result under the given
// name, or (nil, false) on a miss. Safe on a nil cache and from concurrent
// goroutines.
func (c *MemoCache) lookup(a, b uint64, name string) (*Automaton, bool) {
	if c == nil {
		return nil, false
	}
	k := memoKey{a: a, b: b}
	sh := c.shard(k)
	sh.mu.Lock()
	master := sh.m[k]
	sh.mu.Unlock()
	if master == nil && c.backend != nil {
		// Memory miss: fall through to the persistent store. A decodable
		// payload is promoted into the shard so later lookups in this
		// process stay in memory; a stale-codec payload is a plain miss.
		if payload, ok := c.backend.Load(memoOp, a, b); ok {
			if loaded, err := UnmarshalMemo(payload); err == nil {
				sh.mu.Lock()
				if cur := sh.m[k]; cur != nil {
					master = cur // a concurrent store/promotion won; identical by construction
				} else {
					sh.m[k] = loaded
					master = loaded
				}
				sh.mu.Unlock()
			}
		}
	}
	if master == nil {
		c.count(false)
		return nil, false
	}
	hits := c.count(true)
	if c.journal.Enabled() {
		c.journal.Emit(obs.Event{Kind: obs.KindCacheHit, Iter: -1,
			S: map[string]string{"op": memoOp},
			N: map[string]int64{"key_a": int64(a), "key_b": int64(b), "hits": hits},
		})
	}
	return master.shareRows(name), true
}

// store records the construction result. The master is a copy-on-write
// clone of it, so the caller keeps the original and may grow it, but must
// not write its rows in place. The first store for a key wins; concurrent
// duplicate stores are identical by construction, so dropping the loser is
// sound.
func (c *MemoCache) store(a, b uint64, auto *Automaton) {
	if c == nil {
		return
	}
	k := memoKey{a: a, b: b}
	master := auto.shareRows(auto.name)
	sh := c.shard(k)
	sh.mu.Lock()
	_, dup := sh.m[k]
	if !dup {
		sh.m[k] = master
	}
	sh.mu.Unlock()
	if !dup && c.backend != nil {
		// Write through (outside the shard lock) so other processes and a
		// restarted one find the result; Save itself drops duplicates.
		if payload, err := MarshalMemo(master); err == nil {
			c.backend.Save(memoOp, a, b, payload)
		}
	}
}

// Universe returns the universe compiled over the given alphabets,
// compiling each (predefined universe, alphabets) pair once per cache: the
// instances of a batch typically share one component alphabet, and each
// would otherwise enumerate the same labels again. The result is shared and
// read-only. A universe lookup counts as neither a hit nor a miss. On a nil
// cache, and for a universe other than the predefined ones (an arbitrary
// InteractionUniverse value need not be comparable), it compiles afresh.
func (c *MemoCache) Universe(u InteractionUniverse, inputs, outputs SignalSet) *CompiledUniverse {
	kind, predefined := u.(universeKind)
	if c == nil || !predefined {
		return CompileUniverse(u, inputs, outputs)
	}
	k := universeKey{kind: kind, in: inputs.Key(), out: outputs.Key()}
	if cu, ok := c.universes.Load(k); ok {
		return cu.(*CompiledUniverse)
	}
	cu, _ := c.universes.LoadOrStore(k, CompileUniverse(u, inputs, outputs))
	return cu.(*CompiledUniverse)
}

// Stats returns the hit and miss counts of the lookups made through c
// (a cache's include its handles') and the number of cached entries.
func (c *MemoCache) Stats() (hits, misses, entries int64) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return c.hits.Load(), c.misses.Load(), entries
}

// shareRows returns a copy-on-write clone of the automaton under the given
// name. The clone has its own state table, name index and row table, and
// shares the adjacency rows, per-state label and part slices, initial
// states and leaf decomposition, each with its capacity capped at its
// length: growing a shared slice copies it, and adding states or rows
// changes only the clone. It keeps composed-state provenance (parts) and
// the leaf decomposition, which Clone/Rename do not carry over; memoized
// results need both, because counterexample classification (IsChaosState)
// and run projection read them. A composed automaton is named first, and
// its clone is a plain automaton.
func (a *Automaton) shareRows(name string) *Automaton {
	a.materialize()
	b := &Automaton{
		name:    name,
		inputs:  a.inputs,
		outputs: a.outputs,
		states:  make([]stateInfo, len(a.states)),
		index:   maps.Clone(a.index),
		adj:     make([][]Transition, len(a.adj)),
		initial: slices.Clip(a.initial),
		leaves:  slices.Clip(a.leaves),
	}
	for i, st := range a.states {
		b.states[i] = stateInfo{name: st.name, labels: slices.Clip(st.labels), parts: slices.Clip(st.parts)}
	}
	for i, row := range a.adj {
		b.adj[i] = slices.Clip(row)
	}
	return b
}
