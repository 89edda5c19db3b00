package automata

import "muml/internal/obs"

// Observability hooks for the hot algorithms of this package. The
// instruments live in package-level nil pointers so that the uninstrumented
// default costs a single predictable nil-check branch per update and
// allocates nothing (obs counters are nil-safe). EnableObservability is
// called once, before any composition or synthesis runs, from the cmd
// binaries and benchmarks; concurrent enable/disable during a run is not
// supported.
var (
	// Interner label-cache behaviour: a hit reuses a canonical SignalSet /
	// Interaction, a miss materializes one.
	obsInternHits   *obs.Counter
	obsInternMisses *obs.Counter

	// Closure and product construction effort.
	obsClosureBuilds  *obs.Counter
	obsComposedStates *obs.Counter

	// n-ary composition BFS frontier: level count and the peak frontier
	// width.
	obsComposeLevels       *obs.Counter
	obsComposeFrontierPeak *obs.MaxGauge

	// Incremental-system accounting (see IncrementalSystem.LastDecision for
	// the per-call reason).
	obsProductPatches  *obs.Counter
	obsProductRebuilds *obs.Counter

	// obsJournal, when set, receives compose_level events from ComposeAll.
	obsJournal *obs.Journal
)

// EnableObservability registers this package's counters in the registry
// and routes composition-frontier events to the journal. Either argument
// may be nil to enable only the other half. Call before running
// compositions; the hooks stay enabled until DisableObservability.
func EnableObservability(j *obs.Journal, r *obs.Registry) {
	obsInternHits = r.Counter("automata.intern_hits")
	obsInternMisses = r.Counter("automata.intern_misses")
	obsClosureBuilds = r.Counter("automata.closure_builds")
	obsComposedStates = r.Counter("automata.composed_states")
	obsComposeLevels = r.Counter("automata.compose_levels")
	obsComposeFrontierPeak = r.MaxGauge("automata.compose_frontier_peak")
	obsProductPatches = r.Counter("automata.product_patches")
	obsProductRebuilds = r.Counter("automata.product_rebuilds")
	obsJournal = j
}

// DisableObservability detaches all hooks (the default state).
func DisableObservability() {
	obsInternHits = nil
	obsInternMisses = nil
	obsClosureBuilds = nil
	obsComposedStates = nil
	obsComposeLevels = nil
	obsComposeFrontierPeak = nil
	obsProductPatches = nil
	obsProductRebuilds = nil
	obsJournal = nil
}
