package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	want := []Event{
		{Kind: KindIterationStart, Iter: 0, N: map[string]int64{"model_states": 1}},
		{Kind: KindProductRebuilt, Iter: 0, DurNS: 12345,
			N: map[string]int64{"closure_states": 4, "system_states": 10},
			S: map[string]string{"reason": "initial-build"}},
		{Kind: KindReplayStep, Iter: 1, N: map[string]int64{"blocked_at": -1},
			S: map[string]string{"trace": "[CurrentState] name=\"noConvoy\"\nline two\n"}},
		{Kind: KindVerdict, Iter: 3, S: map[string]string{"verdict": "proven"}},
	}

	var buf bytes.Buffer
	j := NewJournal(NewJSONLSink(&buf))
	for _, e := range want {
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	var prevTNS int64
	for i := range want {
		want[i].Seq = uint64(i + 1)
		// Emit stamps the monotonic journal clock; it must never run
		// backwards within one journal.
		if got[i].TNS < prevTNS {
			t.Errorf("event %d: t_ns %d ran backwards (previous %d)", i, got[i].TNS, prevTNS)
		}
		prevTNS = got[i].TNS
		want[i].TNS = got[i].TNS
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalSequenceMonotonicUnderConcurrency(t *testing.T) {
	var sink MemorySink
	j := NewJournal(&sink)

	const goroutines = 8
	const perGoroutine = 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				j.Emit(Event{Kind: KindComposeLevel, Iter: -1, N: map[string]int64{"level": int64(i)}})
			}
		}(g)
	}
	wg.Wait()

	events := sink.Events()
	if len(events) != goroutines*perGoroutine {
		t.Fatalf("got %d events, want %d", len(events), goroutines*perGoroutine)
	}
	// Emission and sequence assignment happen under one lock, so the sink
	// must observe exactly 1..n in order.
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if j.Seq() != uint64(len(events)) {
		t.Fatalf("journal seq = %d, want %d", j.Seq(), len(events))
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   `{"seq":1,"kind":"bogus","iter":-1}`,
		"unknown field":  `{"seq":1,"kind":"note","iter":-1,"extra":true}`,
		"zero seq":       `{"seq":0,"kind":"note","iter":-1}`,
		"bad iter":       `{"seq":1,"kind":"note","iter":-2}`,
		"negative dur":   `{"seq":1,"kind":"note","iter":-1,"dur_ns":-5}`,
		"non-increasing": "{\"seq\":1,\"kind\":\"note\",\"iter\":-1}\n{\"seq\":1,\"kind\":\"note\",\"iter\":-1}",
		"not json":       `nope`,
	}
	for name, line := range cases {
		if _, err := ValidateJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	if n, err := ValidateJSONL(strings.NewReader(
		"{\"seq\":2,\"kind\":\"note\",\"iter\":-1}\n{\"seq\":9,\"kind\":\"verdict\",\"iter\":0}\n")); err != nil || n != 2 {
		t.Errorf("valid journal with seq gaps: n=%d err=%v", n, err)
	}
}

func TestNilJournalAndRegistryAreInert(t *testing.T) {
	var j *Journal
	if j.Enabled() {
		t.Fatal("nil journal reports enabled")
	}
	j.Emit(Event{Kind: KindNote}) // must not panic
	if j.Seq() != 0 {
		t.Fatal("nil journal has a sequence")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if NewJournal(nil) != nil {
		t.Fatal("NewJournal(nil) should be the disabled journal")
	}

	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	g := r.MaxGauge("x")
	g.Observe(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	tm := r.Timer("x")
	tm.Observe(time.Second)
	if tm.Count() != 0 || tm.Total() != 0 {
		t.Fatal("nil timer holds a value")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Counter("b.count").Add(4)
	r.MaxGauge("a.peak").Observe(10)
	r.MaxGauge("a.peak").Observe(6)
	r.Timer("c.span").Observe(2 * time.Millisecond)

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	if !reflect.DeepEqual(names, []string{"a.peak", "b.count", "c.span"}) {
		t.Fatalf("snapshot order %v", names)
	}
	if snap[0].Value != 10 || snap[1].Value != 7 || snap[2].Value != 1 {
		t.Fatalf("snapshot values %+v", snap)
	}
	if snap[2].TotalNS != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("timer total %d", snap[2].TotalNS)
	}
	if !strings.Contains(r.RenderTable(), "b.count") {
		t.Fatal("rendered table misses a metric")
	}
}

func TestMaxGaugeConcurrent(t *testing.T) {
	g := NewRegistry().MaxGauge("peak")
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Observe(int64(i))
		}(i)
	}
	wg.Wait()
	if g.Value() != 99 {
		t.Fatalf("max = %d, want 99", g.Value())
	}
}

func TestTextSinkRendersPayload(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(NewTextSink(&buf))
	j.Emit(Event{Kind: KindCheckResult, Iter: 2, DurNS: int64(3 * time.Millisecond),
		N: map[string]int64{"property_holds": 1}})
	j.Emit(Event{Kind: KindReplayStep, Iter: 2,
		S: map[string]string{"trace": "line one\nline two\n"}})
	out := buf.String()
	for _, want := range []string{"check_result", "iter=2", "property_holds=1", "line one", "line two"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output misses %q:\n%s", want, out)
		}
	}
}

func TestTeeSinkFansOut(t *testing.T) {
	var a, b MemorySink
	j := NewJournal(TeeSink{&a, &b})
	j.Emit(Event{Kind: KindNote, Iter: -1, S: map[string]string{"text": "hi"}})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("tee delivered %d/%d events", len(a.Events()), len(b.Events()))
	}
}

func TestValidateJSONLAcceptsServiceAndStoreKinds(t *testing.T) {
	// The verifyd job-lifecycle and persistent-store events must pass the
	// validator: journalstat -validate gates the smoke lanes on it.
	journal := strings.Join([]string{
		`{"seq":1,"kind":"job_submitted","iter":-1,"s":{"job":"job-1","source":"gen(seed=1,n=8)"},"n":{"instances":8,"queue_depth":1}}`,
		`{"seq":2,"kind":"store_miss","iter":-1,"s":{"op":"compose","key":"compose-0-0.memo"}}`,
		`{"seq":3,"kind":"store_hit","iter":-1,"s":{"op":"compose","key":"compose-0-0.memo"},"n":{"bytes":120}}`,
		`{"seq":4,"kind":"store_evict","iter":-1,"s":{"key":"compose-0-0.memo","reason":"size"},"n":{"bytes":120}}`,
		`{"seq":5,"kind":"job_done","iter":-1,"dur_ns":12,"s":{"job":"job-1","state":"done"},"n":{"memo_hits":3}}`,
	}, "\n") + "\n"
	if n, err := ValidateJSONL(strings.NewReader(journal)); err != nil || n != 5 {
		t.Fatalf("service/store journal: n=%d err=%v", n, err)
	}
}
