package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/gen"
	"muml/internal/obs"
)

// BatchRun records one batch.Verify pass over the instance set at a given
// worker count.
type BatchRun struct {
	Workers       int     `json:"workers"`
	WallNS        int64   `json:"wall_ns"`
	NSPerInstance int64   `json:"ns_per_instance"`
	Throughput    float64 `json:"instances_per_sec"`
	Proven        int     `json:"proven"`
	Violations    int     `json:"violations"`
	Errored       int     `json:"errored"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
}

// BatchReport is the JSON document emitted by `experiments -batch`
// (committed as BENCH_batch.json). Speedup is sequential wall time over
// parallel wall time; on a single-core runner it is expected to be ~1.
type BatchReport struct {
	Instances  int      `json:"instances"`
	Seed       int64    `json:"seed"`
	MaxProcs   int      `json:"gomaxprocs"`
	Sequential BatchRun `json:"sequential"`
	Parallel   BatchRun `json:"parallel"`
	Speedup    float64  `json:"speedup"`
}

// CollectBatchBench runs the same generated instance set through the batch
// engine sequentially and with `workers` workers (0 = GOMAXPROCS), checks
// that both passes agree on every verdict, and reports the timing of each.
func CollectBatchBench(seed int64, instances, workers int, journal *obs.Journal, metrics *obs.Registry) (*BatchReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := gen.DefaultConfig()

	// Median-of-N like timeRun: one sample of a ~10ms batch is dominated
	// by scheduler noise on shared runners.
	measure := func(w int) (BatchRun, *batch.Summary, error) {
		sums := make([]*batch.Summary, 0, timingRepeats)
		for r := 0; r < timingRepeats; r++ {
			s, err := batch.Verify(batch.GenItems(seed, instances, cfg), batch.Options{
				Workers: w,
				Memo:    automata.NewMemoCache(journal),
				Journal: journal,
				Metrics: metrics,
			})
			if err != nil {
				return BatchRun{}, nil, err
			}
			sums = append(sums, s)
		}
		sort.Slice(sums, func(i, j int) bool { return sums[i].Duration < sums[j].Duration })
		sum := sums[len(sums)/2]
		run := BatchRun{
			Workers:       sum.Workers,
			WallNS:        int64(sum.Duration),
			NSPerInstance: int64(sum.Duration) / int64(instances),
			Throughput:    sum.Throughput(),
			Proven:        sum.Proven,
			Violations:    sum.Violations,
			Errored:       sum.Errored,
			CacheHits:     sum.Cost.MemoHits,
			CacheMisses:   sum.Cost.MemoMisses,
		}
		return run, sum, nil
	}

	seqRun, seqSum, err := measure(1)
	if err != nil {
		return nil, err
	}
	parRun, parSum, err := measure(workers)
	if err != nil {
		return nil, err
	}
	for i := range seqSum.Results {
		s, p := seqSum.Results[i], parSum.Results[i]
		if s.Verdict != p.Verdict || s.Kind != p.Kind || (s.Err == nil) != (p.Err == nil) {
			return nil, fmt.Errorf("batch bench: instance %d (%s): sequential and parallel runs disagree", i, s.Name)
		}
	}

	rep := &BatchReport{
		Instances:  instances,
		Seed:       seed,
		MaxProcs:   runtime.GOMAXPROCS(0),
		Sequential: seqRun,
		Parallel:   parRun,
	}
	if parRun.WallNS > 0 {
		rep.Speedup = float64(seqRun.WallNS) / float64(parRun.WallNS)
	}
	return rep, nil
}

// MarshalBatchBench renders the report as indented JSON.
func MarshalBatchBench(r *BatchReport) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal batch report: %w", err)
	}
	return data, nil
}
