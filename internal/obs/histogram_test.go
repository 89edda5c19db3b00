package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexEdges(t *testing.T) {
	last := len(HistogramBounds) - 1
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1 << histMinExp, 0},          // exactly the first bound
		{1<<histMinExp + 1, 1},        // just past it
		{1 << (histMinExp + 1), 1},    // exactly the second bound
		{1<<(histMinExp+1) + 1, 2},    // just past the second bound
		{1 << histMaxExp, last},       // exactly the last finite bound
		{1<<histMaxExp + 1, last + 1}, // overflow
		{int64(1) << 62, last + 1},    // deep overflow
	}
	for _, c := range cases {
		if got := BucketIndex(c.ns); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every finite bucket's bound must itself map into that bucket —
	// bounds are inclusive upper bounds.
	for i, bound := range HistogramBounds {
		if got := BucketIndex(bound); got != i {
			t.Errorf("BucketIndex(bound %d) = %d, want %d", bound, got, i)
		}
	}
}

func TestHistogramObserveCountSum(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.ObserveNS(3_000_000)
	h.Span()() // ~0ns span, lands in bucket 0
	if got := h.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := h.SumNS(); got < 5_000_000 {
		t.Errorf("SumNS = %d, want >= 5ms", got)
	}
	buckets := h.Buckets()
	if len(buckets) != NumHistogramBuckets {
		t.Fatalf("Buckets len = %d, want %d", len(buckets), NumHistogramBuckets)
	}
	var sum int64
	for _, c := range buckets {
		sum += c
	}
	if sum != h.Count() {
		t.Errorf("bucket sum %d != Count %d", sum, h.Count())
	}
}

func TestNilHistogramInert(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveNS(42)
	h.Span()()
	if h.Count() != 0 || h.SumNS() != 0 || h.Buckets() != nil {
		t.Error("nil histogram holds state")
	}
	var r *Registry
	if r.Histogram("x") != nil {
		t.Error("nil registry handed out a non-nil histogram")
	}
}

func TestHistogramQuantile(t *testing.T) {
	if got := HistogramQuantile(nil, 50); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	var h Histogram
	for i := 0; i < 99; i++ {
		h.ObserveNS(10_000) // bucket bound 2^14 = 16384
	}
	h.ObserveNS(1 << 40) // overflow
	b := h.Buckets()
	if got, want := HistogramQuantile(b, 50), int64(16384); got != want {
		t.Errorf("p50 = %d, want %d", got, want)
	}
	if got, want := HistogramQuantile(b, 99), int64(16384); got != want {
		t.Errorf("p99 = %d, want %d", got, want)
	}
	// The 100th percentile rank lands in the overflow bucket, which
	// reports the last finite bound.
	if got, want := HistogramQuantile(b, 100), HistogramBounds[len(HistogramBounds)-1]; got != want {
		t.Errorf("p100 = %d, want %d", got, want)
	}
}

// TestLiveAndOfflineQuantilesAgree pins the contract between the live
// /metrics histograms and the journalstat offline percentiles: both sides
// bucket with BucketIndex over HistogramBounds, so for any sample the
// offline nearest-rank percentile and the live quantile land in the same
// bucket (agreement within one bucket width).
func TestLiveAndOfflineQuantilesAgree(t *testing.T) {
	durs := []int64{
		900, 12_000, 47_000, 180_000, 950_000, 1_100_000, 4_700_000,
		22_000_000, 130_000_000, 890_000_000, 2_400_000_000, 11_000_000_000,
	}
	var h Histogram
	events := make([]Event, 0, len(durs))
	for i, d := range durs {
		h.ObserveNS(d)
		events = append(events, Event{Seq: uint64(i + 1), Kind: KindCheckResult, Iter: i, DurNS: d})
	}
	stats := Analyze(events, 0)
	offline, ok := stats.Phases["check"]
	if !ok {
		t.Fatal("no check phase in offline stats")
	}
	live := h.Buckets()
	for i := range live {
		if live[i] != offline.Buckets[i] {
			t.Fatalf("bucket %d: live %d != offline %d", i, live[i], offline.Buckets[i])
		}
	}
	for q, offNS := range map[int]int64{50: offline.P50NS, 90: offline.P90NS, 99: offline.P99NS} {
		liveQ := HistogramQuantile(live, q)
		if offNS > liveQ {
			t.Errorf("p%d: offline %d exceeds live bucket bound %d", q, offNS, liveQ)
		}
		if BucketIndex(offNS) != BucketIndex(liveQ) {
			t.Errorf("p%d: offline %d (bucket %d) and live %d (bucket %d) disagree by more than one bucket",
				q, offNS, BucketIndex(offNS), liveQ, BucketIndex(liveQ))
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveNS(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("Count = %d, want %d", got, workers*per)
	}
}

func TestValidateHistogramSnapshotEvents(t *testing.T) {
	valid := `{"seq":1,"kind":"histogram_snapshot","iter":-1,"s":{"name":"core.check"},"n":{"count":3,"sum_ns":5000,"b03":2,"b27":1}}`
	if n, err := ValidateJSONL(strings.NewReader(valid)); err != nil || n != 1 {
		t.Errorf("valid snapshot: n=%d err=%v", n, err)
	}
	invalid := map[string]string{
		"missing name":    `{"seq":1,"kind":"histogram_snapshot","iter":-1,"n":{"count":0}}`,
		"count mismatch":  `{"seq":1,"kind":"histogram_snapshot","iter":-1,"s":{"name":"x"},"n":{"count":2,"b00":3}}`,
		"negative bucket": `{"seq":1,"kind":"histogram_snapshot","iter":-1,"s":{"name":"x"},"n":{"count":-1,"b01":-1}}`,
		"sum overflow":    overflowSnapshot,
	}
	for name, line := range invalid {
		if _, err := ValidateJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}
