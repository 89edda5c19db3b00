package batch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/gen"
)

// TestVerifyRunsEveryItemOnce checks that every item is built exactly once
// and yields exactly one result, at its own index, at every pool width
// from one to eight workers, including more workers than items.
func TestVerifyRunsEveryItemOnce(t *testing.T) {
	errBuild := errors.New("not built")
	for _, n := range []int{1, 5, 37} {
		for workers := 1; workers <= 8; workers++ {
			builds := make([]atomic.Int32, n)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item{Name: fmt.Sprintf("item-%d", i), Build: func() (Problem, error) {
					builds[i].Add(1)
					return Problem{}, errBuild
				}}
			}
			sum, err := Verify(items, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Results) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(sum.Results))
			}
			for i, res := range sum.Results {
				if res.Index != i || res.Name != items[i].Name || !errors.Is(res.Err, errBuild) {
					t.Fatalf("n=%d workers=%d: result %d is %+v", n, workers, i, res)
				}
				if c := builds[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: item %d built %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestVerifyDeterministicAcrossWorkerCounts is the soundness contract of
// the batch engine: the same 64-instance batch must produce identical
// per-instance verdicts whether it runs sequentially or on 8 workers with
// a shared memo cache.
func TestVerifyDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	run := func(workers int, memo *automata.MemoCache) *Summary {
		t.Helper()
		sum, err := Verify(GenItems(1, n, gen.DefaultConfig()), Options{
			Workers: workers,
			Memo:    memo,
		})
		if err != nil {
			t.Fatalf("Verify(workers=%d): %v", workers, err)
		}
		if len(sum.Results) != n {
			t.Fatalf("Verify(workers=%d): %d results, want %d", workers, len(sum.Results), n)
		}
		return sum
	}

	seq := run(1, nil)
	par := run(8, automata.NewMemoCache(nil))

	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Index != i || p.Index != i {
			t.Fatalf("result %d out of order: seq index %d, par index %d", i, s.Index, p.Index)
		}
		if s.Name != p.Name {
			t.Fatalf("result %d: name %q vs %q", i, s.Name, p.Name)
		}
		if (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("result %d (%s): error mismatch: seq=%v par=%v", i, s.Name, s.Err, p.Err)
		}
		if s.Err != nil {
			continue
		}
		if s.Verdict != p.Verdict || s.Kind != p.Kind {
			t.Fatalf("result %d (%s): verdict %v/%v (seq) vs %v/%v (par)",
				i, s.Name, s.Verdict, s.Kind, p.Verdict, p.Kind)
		}
	}

	if seq.Proven+seq.Violations == 0 {
		t.Fatalf("degenerate batch: no instance reached a verdict (errored=%d)", seq.Errored)
	}
	if seq.Proven == 0 || seq.Violations == 0 {
		t.Logf("note: batch not mixed: proven=%d violations=%d", seq.Proven, seq.Violations)
	}
}

// TestVerifyScenarios runs the paper's crossing scenarios through the
// batch engine and checks the expected verdicts.
func TestVerifyScenarios(t *testing.T) {
	sum, err := Verify(ScenarioItems(), Options{Workers: 2})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	want := map[string]core.Verdict{
		"crossing-swift-constraint":    core.VerdictProven,
		"crossing-sluggish-constraint": core.VerdictViolation,
		"crossing-stuck-constraint":    core.VerdictViolation,
		"crossing-swift-deadline":      core.VerdictProven,
	}
	for _, res := range sum.Results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
		if w, ok := want[res.Name]; ok && res.Verdict != w {
			t.Errorf("%s: verdict %v, want %v", res.Name, res.Verdict, w)
		}
	}
}

// TestVerifyDeadlineCancellation checks the satellite requirement: an
// exploding wide-alphabet instance under a tiny per-instance deadline must
// come back as context.DeadlineExceeded — and must not leak goroutines.
func TestVerifyDeadlineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := gen.WideConfig()
	cfg.MaxLegacyStates = 6
	cfg.MaxContextStates = 6
	sum, err := Verify(GenItems(7, 4, cfg), Options{
		Workers:  2,
		Deadline: 1 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, res := range sum.Results {
		if res.Err == nil {
			// A tiny instance can legitimately finish inside 1ms; that is
			// fine as long as the ones that do not are cleanly timed out.
			continue
		}
		if !res.TimedOut {
			t.Errorf("%s: error without TimedOut: %v", res.Name, res.Err)
		}
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Errorf("%s: error does not wrap context.DeadlineExceeded: %v", res.Name, res.Err)
		}
	}
	if sum.TimedOut == 0 {
		t.Logf("note: all wide instances finished inside the deadline")
	}

	// No goroutine may outlive Verify: the workers exit via wg.Wait and the
	// synthesis loop runs on the worker itself. Allow the runtime a few
	// polls to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVerifyBatchContextAbort checks that canceling the batch-level
// context stops handing out work and marks unstarted items.
func TestVerifyBatchContextAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := Verify(GenItems(1, 8, gen.DefaultConfig()), Options{
		Workers: 2,
		Context: ctx,
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, res := range sum.Results {
		if res.Err == nil {
			t.Fatalf("%s: completed under a canceled batch context", res.Name)
		}
		if !res.TimedOut {
			t.Errorf("%s: canceled instance not marked TimedOut: %v", res.Name, res.Err)
		}
	}
	if sum.TimedOut != len(sum.Results) {
		t.Errorf("TimedOut=%d, want %d", sum.TimedOut, len(sum.Results))
	}
}

// TestVerifyPanicIsolation checks that a panicking instance is converted
// into its own Result without taking down the batch.
func TestVerifyPanicIsolation(t *testing.T) {
	items := GenItems(1, 3, gen.DefaultConfig())
	items = append(items, Item{Name: "boom", Build: func() (Problem, error) {
		panic("deliberate test panic")
	}})
	sum, err := Verify(items, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	var boom *Result
	for i := range sum.Results {
		if sum.Results[i].Name == "boom" {
			boom = &sum.Results[i]
		} else if sum.Results[i].Err != nil {
			t.Errorf("%s: infected by sibling panic: %v", sum.Results[i].Name, sum.Results[i].Err)
		}
	}
	if boom == nil {
		t.Fatal("panicking item missing from results")
	}
	if !boom.Panicked || boom.Err == nil || !strings.Contains(boom.Err.Error(), "deliberate test panic") {
		t.Fatalf("panic not isolated: panicked=%v err=%v", boom.Panicked, boom.Err)
	}
	if sum.Panicked != 1 {
		t.Errorf("Summary.Panicked=%d, want 1", sum.Panicked)
	}
}

// TestManifestItems checks JSONL parsing: names, defaults, comments, and
// error positions.
func TestManifestItems(t *testing.T) {
	manifest := strings.Join([]string{
		`# comment line`,
		`{"seed": 3}`,
		``,
		`  {"seed": 4, "config": "wide", "max_states": 2}`,
		`{"seed": 5, "name": "custom", "config": "default"}`,
	}, "\n")
	items, err := ManifestItems(strings.NewReader(manifest))
	if err != nil {
		t.Fatalf("ManifestItems: %v", err)
	}
	wantNames := []string{"gen-3", "gen-4-wide", "custom"}
	if len(items) != len(wantNames) {
		t.Fatalf("%d items, want %d", len(items), len(wantNames))
	}
	for i, w := range wantNames {
		if items[i].Name != w {
			t.Errorf("item %d: name %q, want %q", i, items[i].Name, w)
		}
		if _, err := items[i].Build(); err != nil {
			t.Errorf("item %d (%s): build: %v", i, items[i].Name, err)
		}
	}

	if _, err := ManifestItems(strings.NewReader(`{"seed": 1, "config": "bogus"}`)); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Errorf("unknown config: err = %v, want line-1 error", err)
	}
	if _, err := ManifestItems(strings.NewReader("{\"seed\": 1}\nnot json")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad JSON: err = %v, want line-2 error", err)
	}
	if _, err := ManifestItems(strings.NewReader(`{"seed": 1, "sneed": 2}`)); err == nil {
		t.Errorf("unknown field accepted")
	}
	for _, trailing := range []string{`{"seed":1} {"seed":2}`, `{"seed":1}garbage`} {
		if _, err := ManifestItems(strings.NewReader("{\"seed\": 3}\n" + trailing + "\n")); err == nil ||
			!strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: err = %v, want line-2 error", trailing, err)
		}
	}
	if items, err := ManifestItems(strings.NewReader("{\"seed\": 3} \t\r\n")); err != nil || len(items) != 1 {
		t.Errorf("trailing blanks: %d items, err = %v", len(items), err)
	}
}

// TestManifestLineCap checks the line-length cap: a line of
// maxManifestLine bytes (an entry padded with blanks) parses, with or
// without a newline after it, and a line one byte longer fails with an
// error that names its line.
func TestManifestLineCap(t *testing.T) {
	const entry = `{"seed": 7}`
	line := func(n int) string { return entry + strings.Repeat(" ", n-len(entry)) }
	for _, manifest := range []string{
		"{\"seed\": 3}\n" + line(maxManifestLine) + "\n",
		"{\"seed\": 3}\n" + line(maxManifestLine),
	} {
		items, err := ManifestItems(strings.NewReader(manifest))
		if err != nil || len(items) != 2 || items[1].Name != "gen-7" {
			t.Fatalf("line of %d bytes: %d items, err = %v", maxManifestLine, len(items), err)
		}
	}
	_, err := ManifestItems(strings.NewReader("{\"seed\": 3}\n" + line(maxManifestLine+1) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("line of %d bytes: err = %v, want a line-2 ErrTooLong", maxManifestLine+1, err)
	}
}

// FuzzManifestItems feeds arbitrary manifests to the intake. It must never
// panic, and an accepted manifest must yield exactly one item per entry
// line (neither blank nor a comment), named as the entry says or by the
// documented default: "gen-<seed>", "gen-<seed>-wide" for wide entries.
func FuzzManifestItems(f *testing.F) {
	for _, seed := range []string{
		`{"seed": 3}`,
		`{"seed": 4, "config": "wide"}`,
		`{"seed": 5, "config": "default", "max_states": 2}`,
		"# comment\n\n  {\"seed\": 6, \"name\": \"custom\"}\n",
		"\t\n{\"seed\": -7}\r\n# {\"seed\": 8}\n{\"seed\": 9, \"config\": \"wide\", \"max_states\": 3}",
		`{"seed":1} {"seed":2}`,
		`{"seed":1}garbage`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, manifest string) {
		items, err := ManifestItems(strings.NewReader(manifest))
		if err != nil {
			return
		}
		var want []string
		for _, line := range strings.Split(manifest, "\n") {
			line = strings.TrimLeft(strings.TrimSuffix(line, "\r"), " \t")
			if line == "" || line[0] == '#' {
				continue
			}
			var e manifestEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("accepted entry line %q does not decode: %v", line, err)
			}
			name := e.Name
			if name == "" {
				name = fmt.Sprintf("gen-%d", e.Seed)
				if e.Config == "wide" {
					name += "-wide"
				}
			}
			want = append(want, name)
		}
		if len(items) != len(want) {
			t.Fatalf("%d items from %d entry lines", len(items), len(want))
		}
		for i, name := range want {
			if items[i].Name != name {
				t.Errorf("item %d named %q, want %q", i, items[i].Name, name)
			}
		}
	})
}

// TestVerifyEmptyAndDefaults covers the trivial edges.
func TestVerifyEmptyAndDefaults(t *testing.T) {
	sum, err := Verify(nil, Options{})
	if err != nil || len(sum.Results) != 0 {
		t.Fatalf("empty batch: sum=%+v err=%v", sum, err)
	}
	if sum.Throughput() != 0 {
		t.Errorf("empty Throughput=%v, want 0", sum.Throughput())
	}
	// More workers than items must clamp, not spin idle goroutines.
	sum, err = Verify(GenItems(1, 2, gen.DefaultConfig()), Options{Workers: 16})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if sum.Workers != 2 {
		t.Errorf("Workers=%d, want clamped 2", sum.Workers)
	}
}
