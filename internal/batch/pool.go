// Package batch runs many independent synthesis instances concurrently on
// a work-stealing worker pool, with per-instance deadlines, panic
// isolation, and a shared memoization cache for identical chaotic closures
// (DESIGN.md §9). It is the engine behind cmd/batchverify and
// the concurrent lane the CI race detector exercises.
package batch

import "sync"

// span is a half-open range [lo, hi) of still-unstarted item indices.
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

// pool hands out item indices [0, n) to workers. Each worker owns a
// contiguous range and drains it front to back; a worker whose range is
// empty steals the upper half of the largest remaining range. Ranges hold
// only unstarted indices (taking an index advances lo under the mutex), so
// stealing never duplicates or drops work. Index granularity is one whole
// synthesis instance — milliseconds to seconds of work — so a single mutex
// around the steal logic is nowhere near contention.
type pool struct {
	mu     sync.Mutex
	spans  []span
	steals int
}

// newPool splits [0, n) into one contiguous range per worker.
func newPool(n, workers int) *pool {
	p := &pool{spans: make([]span, workers)}
	chunk, rem := n/workers, n%workers
	lo := 0
	for w := range p.spans {
		size := chunk
		if w < rem {
			size++
		}
		p.spans[w] = span{lo: lo, hi: lo + size}
		lo += size
	}
	return p
}

// next returns the next index for worker w, stealing if its own range is
// drained. The second result is false when no work remains anywhere.
func (p *pool) next(w int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := &p.spans[w]; s.lo < s.hi {
		idx := s.lo
		s.lo++
		return idx, true
	}
	victim, best := -1, 0
	for v := range p.spans {
		if v == w {
			continue
		}
		if r := p.spans[v].len(); r > best {
			victim, best = v, r
		}
	}
	if victim < 0 {
		return 0, false
	}
	// Take the upper half (rounded up, so a single remaining index moves);
	// the victim keeps the lower half it is already walking toward.
	vs := &p.spans[victim]
	mid := vs.hi - (best+1)/2
	p.spans[w] = span{lo: mid, hi: vs.hi}
	vs.hi = mid
	p.steals++
	s := &p.spans[w]
	idx := s.lo
	s.lo++
	return idx, true
}

// stolen reports how many steal operations occurred.
func (p *pool) stolen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.steals
}
