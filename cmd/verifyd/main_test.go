package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"muml/internal/automata"
	"muml/internal/memostore"
	"muml/internal/obs"
	"muml/internal/obs/httpd"
)

// testEnv is one in-process verifyd: the job server mounted on the shared
// httpd plane, exactly as cmd/verifyd wires it.
type testEnv struct {
	t     *testing.T
	srv   *server
	hs    *httpd.Server
	base  string
	memo  *automata.MemoCache
	store *memostore.Store
}

func startEnv(t *testing.T, storeDir string, queueCap int, mods ...func(*serverConfig)) *testEnv {
	t.Helper()
	memo := automata.NewMemoCache(nil)
	var store *memostore.Store
	if storeDir != "" {
		var err error
		store, err = memostore.Open(storeDir, memostore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		memo.SetBackend(store)
	}
	cfg := serverConfig{
		Workers:  2,
		Spool:    t.TempDir(),
		QueueCap: queueCap,
		Memo:     memo,
		Store:    store,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	srv := newServer(cfg)
	hs, err := httpd.Start("127.0.0.1:0", httpd.Options{
		Progress: srv.progressSnapshot,
		Extra:    srv.mux(),
		Ready:    srv.ready,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{t: t, srv: srv, hs: hs, base: "http://" + hs.Addr(), memo: memo, store: store}
	t.Cleanup(env.shutdown)
	return env
}

// shutdown drains the runner and closes everything; idempotent so tests may
// call it early to simulate a process exit.
func (e *testEnv) shutdown() {
	e.srv.beginDrain()
	e.srv.wait()
	e.hs.Close()
	e.store.Close()
}

func (e *testEnv) submitJSON(body string) (int, jobStatus) {
	e.t.Helper()
	resp, err := http.Post(e.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			e.t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func (e *testEnv) getStatus(id string) jobStatus {
	e.t.Helper()
	resp, err := http.Get(e.base + "/jobs/" + id)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		e.t.Fatal(err)
	}
	return st
}

// waitState polls the job until it reaches a terminal state (or the wanted
// non-terminal one) and returns its status.
func (e *testEnv) waitState(id, want string) jobStatus {
	e.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := e.getStatus(id)
		switch st.State {
		case want, string(stateDone), string(stateFailed), string(stateCanceled):
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.t.Fatalf("job %s did not reach state %q in time", id, want)
	return jobStatus{}
}

func (e *testEnv) fetch(path string) (int, string) {
	e.t.Helper()
	resp, err := http.Get(e.base + path)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestVerifydJobLifecycle(t *testing.T) {
	env := startEnv(t, "", 4)

	code, st := env.submitJSON(`{"gen":{"seed":1,"n":8,"config":"wide"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.Instances != 8 || st.State != string(stateQueued) && st.State != string(stateRunning) {
		t.Fatalf("submit status = %+v", st)
	}

	done := env.waitState(st.ID, string(stateDone))
	if done.State != string(stateDone) {
		t.Fatalf("job finished as %q (%s)", done.State, done.Error)
	}
	if done.Proven+done.Violations+done.Errored != 8 {
		t.Fatalf("verdict tally %d+%d+%d does not cover 8 instances",
			done.Proven, done.Violations, done.Errored)
	}

	code, verdicts := env.fetch("/jobs/" + st.ID + "/verdicts")
	if code != http.StatusOK {
		t.Fatalf("verdicts = %d, want 200", code)
	}
	lines := nonEmptyLines(verdicts)
	if len(lines) != 8 {
		t.Fatalf("verdicts = %d lines, want 8", len(lines))
	}
	if !sort.SliceIsSorted(lines, func(i, k int) bool { return nameOf(t, lines[i]) < nameOf(t, lines[k]) }) {
		t.Fatalf("verdict lines not sorted by name:\n%s", verdicts)
	}

	code, journal := env.fetch("/jobs/" + st.ID + "/journal")
	if code != http.StatusOK || len(nonEmptyLines(journal)) == 0 {
		t.Fatalf("journal = %d with %d lines, want a populated journal", code, len(nonEmptyLines(journal)))
	}

	code, list := env.fetch("/jobs")
	if code != http.StatusOK || !strings.Contains(list, st.ID) {
		t.Fatalf("job list = %d %q, want it to include %s", code, list, st.ID)
	}

	// The built-in plane wins over the Extra mux; unclaimed paths 404.
	if code, body := env.fetch("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, _ := env.fetch("/nope"); code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", code)
	}
	code, progress := env.fetch("/progress")
	if code != http.StatusOK || !strings.Contains(progress, `"jobs_done":1`) {
		t.Fatalf("progress = %d %q, want jobs_done 1", code, progress)
	}
	if code, _ := env.fetch("/jobs/no-such-job"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job, want 404")
	}
}

func TestVerifydRawManifestSubmit(t *testing.T) {
	env := startEnv(t, "", 4)
	resp, err := http.Post(env.base+"/jobs?workers=2", "text/plain",
		strings.NewReader("{\"seed\": 3}\n{\"seed\": 4, \"config\": \"wide\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("raw manifest submit = %d: %s", resp.StatusCode, body)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Instances != 2 {
		t.Fatalf("instances = %d, want 2", st.Instances)
	}
	if done := env.waitState(st.ID, string(stateDone)); done.State != string(stateDone) {
		t.Fatalf("job finished as %q (%s)", done.State, done.Error)
	}
}

// TestVerifydShardMergeMatchesFull is the shard protocol's contract: the
// union of the shards' verdict documents is exactly the unsharded job's.
func TestVerifydShardMergeMatchesFull(t *testing.T) {
	env := startEnv(t, "", 4)

	full := env.runToDone(`{"gen":{"seed":5,"n":24,"config":"wide"}}`)
	_, fullV := env.fetch("/jobs/" + full + "/verdicts")

	var merged []string
	instances := 0
	for index := 0; index < 2; index++ {
		id := env.runToDone(fmt.Sprintf(`{"gen":{"seed":5,"n":24,"config":"wide"},"shard_index":%d,"shard_count":2}`, index))
		st := env.getStatus(id)
		instances += st.Instances
		_, v := env.fetch("/jobs/" + id + "/verdicts")
		merged = append(merged, nonEmptyLines(v)...)
	}
	if instances != 24 {
		t.Fatalf("shards cover %d instances, want 24", instances)
	}

	want := nonEmptyLines(fullV)
	sort.Strings(want)
	sort.Strings(merged)
	if strings.Join(merged, "\n") != strings.Join(want, "\n") {
		t.Fatalf("merged shard verdicts differ from the full job:\nmerged:\n%s\nfull:\n%s",
			strings.Join(merged, "\n"), strings.Join(want, "\n"))
	}
}

// runToDone submits and waits; fails the test on any non-done outcome.
func (e *testEnv) runToDone(body string) string {
	e.t.Helper()
	code, st := e.submitJSON(body)
	if code != http.StatusAccepted {
		e.t.Fatalf("submit %s = %d", body, code)
	}
	if done := e.waitState(st.ID, string(stateDone)); done.State != string(stateDone) {
		e.t.Fatalf("job %s finished as %q (%s)", st.ID, done.State, done.Error)
	}
	return st.ID
}

// TestVerifydRestartWarmStart is the acceptance scenario at the Go level:
// a second verifyd over the same store directory answers the identical job
// with strictly more memo hits and byte-identical verdicts.
func TestVerifydRestartWarmStart(t *testing.T) {
	storeDir := t.TempDir()
	const jobBody = `{"gen":{"seed":9,"n":16,"config":"wide"}}`

	env1 := startEnv(t, storeDir, 4)
	id1 := env1.runToDone(jobBody)
	st1 := env1.getStatus(id1)
	_, verdicts1 := env1.fetch("/jobs/" + id1 + "/verdicts")
	env1.shutdown() // the "process exit": store closed, runner drained

	env2 := startEnv(t, storeDir, 4)
	id2 := env2.runToDone(jobBody)
	st2 := env2.getStatus(id2)
	_, verdicts2 := env2.fetch("/jobs/" + id2 + "/verdicts")

	if st2.MemoHits <= st1.MemoHits {
		t.Fatalf("restarted run memo hits = %d, want > %d (warm start)", st2.MemoHits, st1.MemoHits)
	}
	if st2.MemoHitRate <= st1.MemoHitRate {
		t.Fatalf("restarted run hit rate = %v, want > %v", st2.MemoHitRate, st1.MemoHitRate)
	}
	if st2.StoreHits == 0 {
		t.Fatalf("restarted run store hits = 0, want the disk store to serve")
	}
	if verdicts1 != verdicts2 {
		t.Fatalf("verdicts changed across the restart:\nrun 1:\n%s\nrun 2:\n%s", verdicts1, verdicts2)
	}
}

func TestVerifydQueueBackpressureAndVerdictConflict(t *testing.T) {
	env := startEnv(t, "", 1)

	// A deliberately long job (single worker) occupies the runner.
	code, slow := env.submitJSON(`{"gen":{"seed":100,"n":200,"config":"wide"},"workers":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit = %d", code)
	}
	env.waitState(slow.ID, string(stateRunning))

	if code, _ := env.fetch("/jobs/" + slow.ID + "/verdicts"); code != http.StatusConflict {
		t.Fatalf("verdicts of a running job = %d, want 409", code)
	}

	code, queued := env.submitJSON(`{"scenarios":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d, want 202", code)
	}
	if code, _ := env.submitJSON(`{"scenarios":true}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit into a full queue = %d, want 503", code)
	}

	if st := env.waitState(slow.ID, string(stateDone)); st.State != string(stateDone) {
		t.Fatalf("slow job finished as %q (%s)", st.State, st.Error)
	}
	if st := env.waitState(queued.ID, string(stateDone)); st.State != string(stateDone) {
		t.Fatalf("queued job finished as %q (%s)", st.State, st.Error)
	}
	if code, _ := env.fetch("/jobs/" + slow.ID + "/verdicts"); code != http.StatusOK {
		t.Fatalf("verdicts after completion = %d, want 200", code)
	}
}

func TestVerifydDrainRejectsAndCancelsQueued(t *testing.T) {
	env := startEnv(t, "", 4)

	code, slow := env.submitJSON(`{"gen":{"seed":100,"n":200,"config":"wide"},"workers":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit = %d", code)
	}
	env.waitState(slow.ID, string(stateRunning))
	code, queued := env.submitJSON(`{"scenarios":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d", code)
	}

	env.srv.beginDrain()
	if code, _ := env.submitJSON(`{"scenarios":true}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	env.srv.wait()

	if st := env.getStatus(slow.ID); st.State != string(stateDone) {
		t.Fatalf("in-flight job after drain = %q, want done (drain finishes it)", st.State)
	}
	if st := env.getStatus(queued.ID); st.State != string(stateCanceled) {
		t.Fatalf("queued job after drain = %q, want canceled", st.State)
	}
}

func TestVerifydRejectsBadRequests(t *testing.T) {
	env := startEnv(t, "", 4)
	for _, body := range []string{
		`{}`,
		`{"gen":{"seed":1,"n":0}}`,
		`{"gen":{"seed":1,"n":4,"config":"weird"}}`,
		`{"manifest":"{\"seed\":1}","scenarios":true}`,
		`{"unknown_field":1}`,
		`{"gen":{"seed":1,"n":4},"shard_count":2,"shard_index":5}`,
		`{"manifest":"not a manifest line"}`,
		`{"gen":{"seed":1,"n":4},"deadline_ms":-5}`,
		`not json at all`,
		trailingDataBody,
		fmt.Sprintf(`{"gen":{"seed":1,"n":%d}}`, maxGenInstances+1),
	} {
		if code, _ := env.submitJSON(body); code != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, code)
		}
	}
}

// trailingDataBody is a valid envelope followed by a second one and
// garbage; POST /jobs must refuse it whole.
const trailingDataBody = `{"scenarios":true} {"gen":{"n":5}} trailing garbage`

// FuzzJobRequest fuzzes the JSON envelope of POST /jobs through the
// decode-and-validate step the handler runs before it builds anything: it
// never panics, and an accepted envelope re-encodes and decodes to the same
// request.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		trailingDataBody,
		`{"gen":{"seed":1,"n":8,"config":"wide"}}`,
		`{"gen":{"seed":-3,"n":4,"max_states":2},"workers":2,"deadline_ms":500} ` + "\n",
		`{"manifest":"{\"seed\":1}\n","shard_index":1,"shard_count":2}`,
		`{"scenarios":true,"workers":-1}`,
		`{"gen":{"seed":1,"n":1048577}}`,
		`{"gen":{"seed":1,"n":4},"gen":null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err == nil {
			err = req.validate()
		}
		if err != nil {
			return
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", req, err)
		}
		again, err := decodeJobRequest(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", data, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// TestVerifydJobCost is the cost-attribution acceptance check: the job
// status carries a populated ledger, the verdict lines carry the
// deterministic per-instance figures, and the per-instance figures sum
// exactly to the job-level ones.
func TestVerifydJobCost(t *testing.T) {
	env := startEnv(t, "", 4)
	id := env.runToDone(`{"gen":{"seed":7,"n":6,"config":"wide"}}`)
	st := env.getStatus(id)
	if st.Cost == nil {
		t.Fatal("done job without a cost block")
	}
	if st.Cost.CPUNS <= 0 || st.Cost.PeakStates <= 0 || st.Cost.CTLWords <= 0 {
		t.Fatalf("implausible job cost: %+v", st.Cost)
	}

	_, verdicts := env.fetch("/jobs/" + id + "/verdicts")
	var peakSum, wordSum int64
	for _, line := range nonEmptyLines(verdicts) {
		var v verdictLine
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", line, err)
		}
		if v.Error == "" && v.Cost == nil {
			t.Fatalf("verdict line without cost: %s", line)
		}
		if v.Cost != nil {
			peakSum += v.Cost.PeakStates
			wordSum += v.Cost.CTLWords
		}
	}
	if peakSum != st.Cost.PeakStates || wordSum != st.Cost.CTLWords {
		t.Fatalf("verdict-line sums (states %d, words %d) != job cost (states %d, words %d)",
			peakSum, wordSum, st.Cost.PeakStates, st.Cost.CTLWords)
	}
}

// TestVerifydReadyz splits the probes: /healthz is pure liveness and
// stays 200 through a drain, /readyz flips to 503 with the reason.
func TestVerifydReadyz(t *testing.T) {
	env := startEnv(t, "", 4)
	if code, body := env.fetch("/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("fresh /readyz = %d %q, want 200 ok", code, body)
	}
	env.srv.beginDrain()
	if code, body := env.fetch("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	if code, _ := env.fetch("/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want liveness to stay 200", code)
	}
}

// TestVerifydOverloadShedsAndRecovers drives the admission controller
// through its heap watermarks directly (standing in for the sampler):
// while overloaded, POST /jobs answers 503 + Retry-After and /readyz
// fails; once pressure falls below the low watermark, intake recovers.
func TestVerifydOverloadShedsAndRecovers(t *testing.T) {
	env := startEnv(t, "", 4, func(cfg *serverConfig) {
		cfg.Overload = obs.NewOverload(obs.OverloadOptions{
			HeapHighBytes: 1 << 30, HeapLowBytes: 1 << 29,
		})
	})

	env.srv.overload.ObserveHeap(1 << 30)
	resp, err := http.Post(env.base+"/jobs", "application/json", strings.NewReader(`{"scenarios":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while overloaded = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("503 body %q does not name the overload", body)
	}
	if code, rb := env.fetch("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(rb, "overloaded") {
		t.Fatalf("overloaded /readyz = %d %q, want 503 overloaded", code, rb)
	}
	if code, pb := env.fetch("/progress"); code != http.StatusOK || !strings.Contains(pb, `"overloaded":true`) {
		t.Fatalf("progress = %d %q, want overloaded:true", code, pb)
	}

	env.srv.overload.ObserveHeap(1 << 28)
	if code, _ := env.fetch("/readyz"); code != http.StatusOK {
		t.Fatalf("recovered /readyz = %d, want 200", code)
	}
	code, st := env.submitJSON(`{"scenarios":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after recovery = %d, want 202", code)
	}
	env.waitState(st.ID, string(stateDone))
}

// TestVerifydShutdownLeaksNoGoroutines pins the service lifecycle: a
// drain-and-close must return the process to its pre-start goroutine
// count — no leaked runner, HTTP, or store goroutines.
func TestVerifydShutdownLeaksNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()

	env := startEnv(t, t.TempDir(), 4)
	env.runToDone(`{"gen":{"seed":2,"n":3}}`)
	env.shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines %d -> %d after shutdown; stacks:\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

func nameOf(t *testing.T, line string) string {
	t.Helper()
	var v verdictLine
	if err := json.Unmarshal([]byte(line), &v); err != nil {
		t.Fatalf("bad verdict line %q: %v", line, err)
	}
	return v.Name
}
