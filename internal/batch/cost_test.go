package batch

import (
	"bytes"
	"testing"

	"muml/internal/automata"
	"muml/internal/gen"
	"muml/internal/obs"
)

// TestCostSumsToSummary is the aggregation contract of the cost ledger:
// the batch-level Cost is the exact sum of the per-instance ledgers, and
// every successful instance carries the effort figures.
func TestCostSumsToSummary(t *testing.T) {
	sum, err := Verify(GenItems(1, 12, gen.DefaultConfig()), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want Cost
	for _, res := range sum.Results {
		want.Add(res.Cost)
		if res.Err != nil {
			continue
		}
		if res.Cost.CPUNS <= 0 {
			t.Errorf("%s: cpu_ns = %d, want > 0", res.Name, res.Cost.CPUNS)
		}
		if res.Cost.PeakStates <= 0 {
			t.Errorf("%s: peak_states = %d, want > 0", res.Name, res.Cost.PeakStates)
		}
		// ctl_words can be 0 for an instance decided without a model-check
		// pass (e.g. a deadlock found structurally), so only the batch-level
		// figure is asserted positive below.
		if res.Cost.CTLWords < 0 || res.Cost.AllocBytes < 0 {
			t.Errorf("%s: negative ledger figures: %+v", res.Name, res.Cost)
		}
	}
	if sum.Cost != want {
		t.Errorf("Summary.Cost = %+v, want exact instance sum %+v", sum.Cost, want)
	}
	if sum.Cost.CTLWords <= 0 {
		t.Errorf("batch ctl_words = %d, want > 0", sum.Cost.CTLWords)
	}
}

// TestCostMemoLedgerIsExact requires every instance's memo figures to be
// its own lookups: over a fresh cache, the instance ledgers add up to the
// cache's hits and misses at one, two and four workers, where concurrent
// instances look closures up at the same time.
func TestCostMemoLedgerIsExact(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		memo := automata.NewMemoCache(nil)
		sum, err := Verify(GenItems(3, 256, gen.DefaultConfig()), Options{Workers: workers, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		hits, misses, _ := memo.Stats()
		if sum.Cost.MemoHits != hits || sum.Cost.MemoMisses != misses {
			t.Errorf("workers=%d: instance ledgers sum to %d hits and %d misses, the cache counted %d and %d",
				workers, sum.Cost.MemoHits, sum.Cost.MemoMisses, hits, misses)
		}
	}
}

// TestCostDeterministicFiguresAcrossWorkers pins the determinism split of
// DESIGN.md §15: peak_states and ctl_words are byte-identity-safe, so
// they must match instance-for-instance across worker counts and memo
// warm-starts, while the measured figures may differ.
func TestCostDeterministicFiguresAcrossWorkers(t *testing.T) {
	const n = 16
	run := func(workers int, memo *automata.MemoCache) *Summary {
		t.Helper()
		sum, err := Verify(GenItems(3, n, gen.DefaultConfig()), Options{Workers: workers, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	seq := run(1, nil)
	par := run(4, automata.NewMemoCache(nil))
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Err != nil || p.Err != nil {
			continue
		}
		if s.Cost.PeakStates != p.Cost.PeakStates {
			t.Errorf("%s: peak_states %d (1 worker) vs %d (4 workers, memo)", s.Name, s.Cost.PeakStates, p.Cost.PeakStates)
		}
		if s.Cost.CTLWords != p.Cost.CTLWords {
			t.Errorf("%s: ctl_words %d (1 worker) vs %d (4 workers, memo)", s.Name, s.Cost.CTLWords, p.Cost.CTLWords)
		}
	}
}

// TestCostJournalEvents checks that instance_done events carry the cost_*
// fields, the batch emits one matching cost_report, and the journal still
// validates.
func TestCostJournalEvents(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(obs.NewJSONLSink(&buf))
	sum, err := Verify(GenItems(1, 4, gen.DefaultConfig()), Options{Workers: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("journal does not validate: %v", err)
	}
	events, err := obs.DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var instCPU int64
	instances := 0
	var report *obs.Event
	for i, e := range events {
		switch e.Kind {
		case obs.KindInstanceDone:
			instances++
			if _, ok := e.N["cost_cpu_ns"]; !ok {
				t.Errorf("instance_done without cost_cpu_ns: %+v", e)
			}
			instCPU += e.N["cost_cpu_ns"]
		case obs.KindCostReport:
			if report != nil {
				t.Fatal("more than one cost_report")
			}
			report = &events[i]
		}
	}
	if instances != 4 {
		t.Fatalf("%d instance_done events, want 4", instances)
	}
	if report == nil {
		t.Fatal("no cost_report event")
	}
	if got := report.N["instances"]; got != 4 {
		t.Errorf("cost_report instances = %d, want 4", got)
	}
	if got := report.N["cpu_ns"]; got != instCPU || got != sum.Cost.CPUNS {
		t.Errorf("cost_report cpu_ns = %d, want instance sum %d = summary %d", got, instCPU, sum.Cost.CPUNS)
	}
}
