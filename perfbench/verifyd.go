package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one verifyd process under test, with one request connection
// and one /events stream.
type server struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	client *http.Client
	events *eventStream
	// exited is closed once the process has been waited for; waitErr is
	// then its exit status.
	exited  chan struct{}
	waitErr error
	stderr  *stderrWatch
}

var servingRE = regexp.MustCompile(`serving .* on http://(\S+)`)

// startServer starts verifyd with one pool worker and its store and spool
// in a fresh directory under workdir, waits for /readyz, and opens the
// /events stream. On error nothing is left running and the directory is
// removed.
func startServer(bin, workdir string) (_ *server, err error) {
	if bin == "" {
		return nil, errors.New("no verifyd binary (-verifyd)")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "verifyd-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, exited: make(chan struct{}),
		stderr: &stderrWatch{addr: make(chan string, 1)}}
	defer func() {
		if err != nil {
			s.kill()
		}
	}()
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(poolWorkers),
		"-deadline", instanceDeadline.String(),
		"-store", filepath.Join(dir, "store"), "-spool", filepath.Join(dir, "spool"))
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	// If the benchmark dies without cleaning up, the kernel kills the
	// server rather than leaving it orphaned.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		s.cmd = nil
		return nil, fmt.Errorf("start verifyd: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	select {
	case a := <-s.stderr.addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, fmt.Errorf("verifyd exited during start: %v: %s", s.waitErr, s.stderr)
	case <-time.After(30 * time.Second):
		return nil, errors.New("verifyd did not report its address")
	}
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if err := s.waitReady(); err != nil {
		return nil, err
	}
	s.events, err = openEvents(s.base)
	return s, err
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("verifyd not ready after 30s: %v", err)
		}
		select {
		case <-s.exited:
			return fmt.Errorf("verifyd exited before ready: %v: %s", s.waitErr, s.stderr)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains verifyd with SIGTERM, waits for it to exit, and removes its
// directory; a server that does not exit within 30 s is killed.
func (s *server) stop() error {
	s.events.close()
	var err error
	if err = s.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-s.exited:
			err = s.waitErr
		case <-time.After(30 * time.Second):
			err = errors.New("verifyd did not drain within 30s")
		}
	}
	s.kill()
	return err
}

// kill ends the process if it still runs and removes the directory. It is
// the cleanup of every error path.
func (s *server) kill() {
	s.events.close()
	if s.cmd != nil {
		select {
		case <-s.exited:
		default:
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// eventStream reads verifyd's /events server-sent events.
type eventStream struct {
	cancel context.CancelFunc
	// jobDone receives the job ID of every job_done event.
	jobDone chan string
	// seen counts the events received.
	seen atomic.Int64
	// ended is closed when the reader has returned.
	ended   chan struct{}
	endOnce sync.Once
}

func openEvents(base string) (*eventStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// A separate transport: the stream holds its connection for the run.
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("/events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/events: %s", resp.Status)
	}
	// Jobs run one at a time, so at most one job_done is unconsumed; the
	// slack covers warm-up jobs of a previous wait.
	es := &eventStream{cancel: cancel, jobDone: make(chan string, 64), ended: make(chan struct{})}
	go func() {
		defer close(es.ended)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			es.seen.Add(1)
			if !bytes.Contains(data, []byte(`"kind":"job_done"`)) {
				continue
			}
			var e struct {
				S map[string]string `json:"s"`
			}
			if json.Unmarshal(data, &e) != nil {
				continue
			}
			select {
			case es.jobDone <- e.S["job"]:
			case <-ctx.Done():
				return
			}
		}
	}()
	return es, nil
}

// waitJob waits for the job_done event of job id.
func (es *eventStream) waitJob(id string) error {
	timeout := time.After(2 * time.Minute)
	for {
		select {
		case got := <-es.jobDone:
			if got == id {
				return nil
			}
		case <-es.ended:
			return errors.New("/events stream ended")
		case <-timeout:
			return fmt.Errorf("no job_done for %s within 2 minutes", id)
		}
	}
}

func (es *eventStream) close() {
	if es == nil {
		return
	}
	es.endOnce.Do(func() {
		es.cancel()
		<-es.ended
	})
}

// stderrWatch is verifyd's standard error: it reports the address from
// the "serving … on http://ADDR" line and keeps the last lines for error
// messages. exec copies into it and Wait waits for the copy.
type stderrWatch struct {
	mu      sync.Mutex
	addr    chan string
	found   bool
	partial []byte
	tail    []byte
}

const stderrTail = 8 << 10

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tail = append(w.tail, p...)
	if len(w.tail) > stderrTail {
		w.tail = w.tail[len(w.tail)-stderrTail:]
	}
	w.partial = append(w.partial, p...)
	for {
		line, rest, ok := bytes.Cut(w.partial, []byte("\n"))
		if !ok {
			break
		}
		w.partial = rest
		if m := servingRE.FindSubmatch(line); !w.found && m != nil {
			w.found = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(string(w.tail))
}

// get fetches a path and returns the body of a 200 response.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// submit posts a manifest of wide instances and returns the job ID; a
// refused submission (503) returns "" and no error.
func (s *server) submit(seeds []int64) (string, error) {
	var manifest strings.Builder
	for _, seed := range seeds {
		fmt.Fprintf(&manifest, "{\"seed\":%d,\"config\":\"wide\"}\n", seed)
	}
	body, err := json.Marshal(map[string]any{"manifest": manifest.String(), "workers": poolWorkers})
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("POST /jobs: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("POST /jobs: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		return "", nil
	default:
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("POST /jobs: no job id in %q", data)
	}
	return st.ID, nil
}

// verdictLine is one line of /jobs/{id}/verdicts.
type verdictLine struct {
	Name       string `json:"name"`
	Verdict    string `json:"verdict"`
	Kind       string `json:"kind"`
	Iterations int    `json:"iterations"`
	Error      string `json:"error"`
	Cost       *struct {
		PeakStates int64 `json:"peak_states"`
		CTLWords   int64 `json:"ctl_words"`
	} `json:"cost"`
}

// key renders every field of the line for comparison.
func (l verdictLine) key() string {
	var peak, words int64 = -1, -1
	if l.Cost != nil {
		peak, words = l.Cost.PeakStates, l.Cost.CTLWords
	}
	return fmt.Sprintf("%s %s %q %d %q peak=%d words=%d", l.Name, l.Verdict, l.Kind, l.Iterations, l.Error, peak, words)
}

func (s *server) verdicts(id string) ([]verdictLine, error) {
	body, err := s.get("/jobs/" + id + "/verdicts")
	if err != nil {
		return nil, err
	}
	var lines []verdictLine
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var l verdictLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("verdicts of %s: %w", id, err)
		}
		lines = append(lines, l)
	}
	return lines, nil
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	DurationNS  int64 `json:"duration_ns"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	Cost        struct {
		AllocBytes int64 `json:"alloc_bytes"`
	} `json:"cost"`
}

// jobJournal is what the benchmark reads from a job's spool journal.
type jobJournal struct {
	lines      int
	instanceNS []int64
	batchNS    int64
}

func (s *server) journal(id string) (jobJournal, error) {
	body, err := s.get("/jobs/" + id + "/journal")
	if err != nil {
		return jobJournal{}, err
	}
	var j jobJournal
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		j.lines++
		var e struct {
			Kind  string `json:"kind"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return jobJournal{}, fmt.Errorf("journal of %s: %w", id, err)
		}
		switch e.Kind {
		case "instance_done":
			j.instanceNS = append(j.instanceNS, e.DurNS)
		case "cost_report":
			j.batchNS = e.DurNS
		}
	}
	return j, nil
}

// scrape reads the named counters from /metrics; each must be present.
func (s *server) scrape(names ...string) (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
		out[name] = v
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}
