package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/legacy"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 91, 10}, {ten, 100, 10}, {ten, 10, 1}, {ten, 1, 1},
		{[]float64{3}, 50, 3}, {[]float64{3}, 90, 3},
		{[]float64{1, 2, 3, 4}, 50, 2}, {[]float64{1, 2, 3, 4}, 75, 3}, {[]float64{1, 2, 3, 4}, 76, 4},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
	// Three passes whose p90s are 9, 90 and 18: the median is 18, and the
	// base counts both the passes and the samples.
	tens := func(k float64) []float64 {
		out := make([]float64, len(ten))
		for i, x := range ten {
			out[i] = k * x
		}
		return out
	}
	all := append(append(tens(1), tens(10)...), append(tens(2), 1)...)
	g := groups(all, []int{10, 20, 31})
	if len(g) != 3 || len(g[2]) != 11 {
		t.Fatalf("groups cut %d samples into %v", len(all), g)
	}
	m := groupQuantileMetric("x_ms", "ms", g, 90, "passes", "instance durations")
	if m.Value != 18 || !strings.Contains(m.Base, "median over 3 passes") || !strings.Contains(m.Base, "p90 of their instance durations, 31 in all") {
		t.Errorf("groupQuantileMetric = %+v, want value 18 and the pass and sample counts in its base", m)
	}
}

// smallGen is a short gen corpus for tests.
func smallGen(n int) func(int64) ([]instance, error) {
	return func(seed int64) ([]instance, error) {
		c, err := genCorpus(seed)
		if err != nil {
			return nil, err
		}
		return c[:n], nil
	}
}

// benchmarkSpec reads the metric lists of BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestMetricsMatchSpecAndStateBases runs short untraced and traced windows
// and checks that they report exactly the metrics BENCHMARK.json names,
// and that every per-verdict ratio states its base.
func TestMetricsMatchSpecAndStateBases(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	w := inprocWorkload{corpus: smallGen(48), warmup: jobSize}
	for _, trace := range []bool{false, true} {
		out, err := w.run(runConfig{seed: 3, window: 200 * time.Millisecond, trace: trace})
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if len(out.mismatches) > 0 || out.failed > 0 || out.attempted == 0 {
			t.Fatalf("trace=%v: attempted %d, failed %d, mismatches %v", trace, out.attempted, out.failed, out.mismatches)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		got := metricNames(out.metrics)
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(got, sorted) {
			t.Errorf("trace=%v: metrics %v, BENCHMARK.json names %v", trace, got, sorted)
		}
		checkBases(t, out.metrics)
	}
}

// metricNames lists the names of ms in order.
func metricNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// checkBases checks that every metric states its base, and every
// per-verdict ratio of a layer the workload reaches its verdict count.
func checkBases(t *testing.T, ms []metric) {
	t.Helper()
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v (%s)", m.Name, m.Value, m.Base)
		}
		if m.Base == "" {
			t.Errorf("%s states no base", m.Name)
		}
		if strings.Contains(m.Name, "per_verdict") && !strings.HasPrefix(m.Base, "not reached") &&
			!strings.Contains(m.Base, "per verdict over ") {
			t.Errorf("%s: base %q does not name its verdict count", m.Name, m.Base)
		}
	}
}

// onePass runs every corpus instance once from a fresh memo cache at one
// worker and returns each instance's exact counts.
func onePass(t *testing.T, corpus []instance) []record {
	t.Helper()
	want, err := oracle(corpus)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(corpus, want, false)
	tl := &tally{first: make([]record, len(corpus))}
	if err := s.runPrefix(tl, len(corpus)); err != nil {
		t.Fatal(err)
	}
	if len(tl.mismatches) > 0 || tl.failed > 0 {
		t.Fatalf("failed %d, mismatches %v", tl.failed, tl.mismatches)
	}
	return tl.first
}

// TestSameSeedSameCorpusAndCounts checks that a seed fixes the corpus and
// every exact count: memo hits and misses, iterations, allocation and
// component steps, across two runs at one worker.
func TestSameSeedSameCorpusAndCounts(t *testing.T) {
	for name, gen := range map[string]func(int64) ([]instance, error){
		"gen-corpus":    genCorpus,
		"scenario-deep": func(seed int64) ([]instance, error) { c, err := scenarioCorpus(seed); return c[:100], err },
	} {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].name != b[i].name || a[i].context.Fingerprint() != b[i].context.Fingerprint() ||
				a[i].legacy.Fingerprint() != b[i].legacy.Fingerprint() {
				t.Fatalf("%s: instance %d differs between two generations from one seed", name, i)
			}
		}
		ra, rb := onePass(t, a), onePass(t, b)
		var allocA, allocB int64
		for i := range ra {
			allocA += ra[i].AllocBytes
			allocB += rb[i].AllocBytes
			// The runtime counts allocation per span refill, so one
			// instance's share is not exact; the pass totals, tens of
			// megabytes, are compared.
			ra[i].AllocBytes, rb[i].AllocBytes = 0, 0
			if ra[i] != rb[i] {
				t.Errorf("%s: %s: %+v then %+v", name, a[i].name, ra[i], rb[i])
			}
		}
		t.Logf("%s: allocation %d then %d bytes", name, allocA, allocB)
		if d := float64(allocA-allocB) / float64(allocA); d > allocTolerance || d < -allocTolerance {
			t.Errorf("%s: pass allocation %d then %d bytes", name, allocA, allocB)
		}
		if c, err := gen(8); err != nil || c[0].legacy.Fingerprint() == a[0].legacy.Fingerprint() {
			t.Errorf("%s: seed 8 gave the same first instance as seed 7 (err %v)", name, err)
		}
	}
}

// allocTolerance bounds the relative difference of a pass's allocation
// between two identical runs: at most about one span per size class.
const allocTolerance = 0.02

// probeAwareOnly is a component with ProbeAware but no Introspector.
type probeAwareOnly struct {
	legacy.Component
	heavy bool
}

func (p *probeAwareOnly) SetHeavyProbes(on bool) { p.heavy = on }

// bare hides every optional interface of the component it holds.
type bare struct{ legacy.Component }

func TestWrapperForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	c, err := genCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	auto := c[0].legacy
	newComp := func() *legacy.AutomatonComponent { return legacy.MustWrapAutomaton(auto) }
	type probeAware interface{ SetHeavyProbes(bool) }
	both := struct {
		*legacy.AutomatonComponent
		probeAware
	}{newComp(), &probeAwareOnly{}}
	for _, tc := range []struct {
		name        string
		comp        legacy.Component
		intro, prob bool
	}{
		{"introspector", newComp(), true, false},
		{"probe-aware", &probeAwareOnly{Component: newComp()}, false, true},
		{"both", both, true, true},
		{"bare", bare{newComp()}, false, false},
	} {
		w := wrapComponent(tc.comp, &callStats{}, true)
		_, intro := w.(legacy.Introspector)
		_, prob := w.(probeAware)
		if intro != tc.intro || prob != tc.prob {
			t.Errorf("%s: wrapper Introspector=%v ProbeAware=%v, want %v %v", tc.name, intro, prob, tc.intro, tc.prob)
		}
		if got, want := legacy.InitialStateName(w), legacy.InitialStateName(tc.comp); got != want {
			t.Errorf("%s: initial state %q through the wrapper, %q without", tc.name, got, want)
		}
	}
	var st callStats
	w := wrapComponent(newComp(), &st, false)
	w.Reset()
	w.Step(automata.EmptySet)
	if st.Steps != 1 || st.Resets != 1 || st.StepNS != 0 {
		t.Errorf("untimed wrapper counted %+v, want one step and one reset, no time", st)
	}
}

// TestWrapperIsNeutral checks that synthesis through the counting wrapper
// reaches the same verdicts with the same effort as on the bare component.
func TestWrapperIsNeutral(t *testing.T) {
	c, err := scenarioCorpus(5)
	if err != nil {
		t.Fatal(err)
	}
	corpus := c[:9]
	wrapped := onePass(t, corpus)
	raw := make([]batch.Item, len(corpus))
	for i, inst := range corpus {
		raw[i] = batch.Item{Name: inst.name, Build: func() (batch.Problem, error) {
			comp, err := legacy.WrapAutomaton(inst.legacy)
			return batch.Problem{Context: inst.context, Component: comp, Interface: inst.iface, Property: inst.property}, err
		}}
	}
	sum, err := batch.Verify(raw, batch.Options{Workers: poolWorkers, Memo: automata.NewMemoCache(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range sum.Results {
		w := wrapped[i]
		if res.Err != nil || res.Verdict != w.Verdict || res.Iterations != w.Iterations ||
			res.Cost.CTLWords != w.CTLWords || res.Cost.PeakStates != w.PeakStates ||
			res.Cost.MemoHits != w.MemoHits || res.Cost.MemoMisses != w.MemoMisses {
			t.Errorf("%s: bare %+v (err %v), wrapped %+v", corpus[i].name, res, res.Err, w)
		}
	}
}

// TestWindowPassesShuffleTheCorpus checks that every pass of a window runs
// each corpus instance exactly once, in jobs of at most jobSize, that the
// pass boundaries cut the samples the per-pass percentiles are taken over,
// and that a window's pass orders are fixed by its seed.
func TestWindowPassesShuffleTheCorpus(t *testing.T) {
	corpus, err := smallGen(40)(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle(corpus)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(corpus, want, true)
	rec := newRecorder()
	tl, err := s.runWindow(50*time.Millisecond, 5, rec)
	if err != nil {
		t.Fatal(err)
	}
	passes := len(tl.passWall)
	if passes == 0 || len(tl.mismatches) > 0 || tl.failed > 0 {
		t.Fatalf("%d passes, failed %d, mismatches %v", passes, tl.failed, tl.mismatches)
	}
	for p, g := range groups(tl.instMS, tl.passInstEnd) {
		if len(g) != len(corpus) {
			t.Errorf("pass %d ran %d instances, want %d", p, len(g), len(corpus))
		}
	}
	for p, g := range groups(tl.jobMS, tl.passJobEnd) {
		if len(g) != (len(corpus)+jobSize-1)/jobSize {
			t.Errorf("pass %d ran %d jobs", p, len(g))
		}
	}
	order := instanceOrder(rec)
	if len(order) != passes*len(corpus) {
		t.Fatalf("%d instance spans for %d passes", len(order), passes)
	}
	first := order[:len(corpus)]
	seen := map[int64]bool{}
	inOrder := true
	for i, x := range first {
		seen[x] = true
		inOrder = inOrder && x == int64(i)
	}
	if len(seen) != len(corpus) || inOrder {
		t.Errorf("first pass ran %v: want every instance once, not in corpus order", first)
	}
	rec2 := newRecorder()
	again, err := newSession(corpus, want, true).runWindow(time.Millisecond, 5, rec2)
	if err != nil {
		t.Fatal(err)
	}
	if got := instanceOrder(rec2)[:len(corpus)]; !reflect.DeepEqual(got, first) {
		t.Errorf("same seed, first pass orders %v and %v", first, got)
	}
	if err := sameCounts(tl.first, again.first, corpus); err != nil {
		t.Error(err)
	}
}

// instanceOrder lists the corpus indices of the instance spans in the
// order they ran.
func instanceOrder(rec *recorder) []int64 {
	var order []int64
	for _, sp := range rec.spans {
		if sp.Name == "instance" {
			order = append(order, sp.N["index"])
		}
	}
	return order
}

func TestWideJobsOverlapByHalf(t *testing.T) {
	for k := 1; k < 5; k++ {
		plo, phi := jobIndices(k - 1)
		lo, hi := jobIndices(k)
		if hi-lo != jobSize || lo != plo+jobSize/2 || lo >= phi {
			t.Errorf("job %d covers [%d,%d), previous [%d,%d)", k, lo, hi, plo, phi)
		}
	}
	for _, k := range []int{0, 7, warmupBase} {
		name := "gen-" + strconv.FormatInt(wideSeed(9, k), 10) + "-wide"
		if got, err := wideIndex(9, name); err != nil || got != k {
			t.Errorf("wideIndex(%q) = %d, %v; want %d", name, got, err, k)
		}
	}
	if _, err := wideIndex(9, "gen-12"); err == nil {
		t.Errorf("wideIndex accepted a default-config name")
	}
}

// TestVerifydWindow builds verifyd, runs a short untraced and traced
// window against it, and checks that no server process or directory is
// left behind.
func TestVerifydWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs verifyd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "verifyd")
	if out, err := exec.Command("go", "build", "-o", bin, "muml/cmd/verifyd").CombinedOutput(); err != nil {
		t.Fatalf("build verifyd: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "work")
	endToEnd, perLayer := benchmarkSpec(t)
	for _, trace := range []bool{false, true} {
		out, err := verifydWorkload{}.run(runConfig{seed: 2, window: time.Second, trace: trace, verifyd: bin, workdir: work})
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if len(out.mismatches) > 0 || out.failed > 0 || out.attempted == 0 {
			t.Fatalf("trace=%v: attempted %d, failed %d, mismatches %v", trace, out.attempted, out.failed, out.mismatches)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if got := metricNames(out.metrics); !reflect.DeepEqual(got, sorted) {
			t.Errorf("trace=%v: metrics %v, want %v", trace, got, sorted)
		}
		checkBases(t, out.metrics)
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("server directories left behind: %v", left)
	}
}
