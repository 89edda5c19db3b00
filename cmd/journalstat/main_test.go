package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = "testdata/batch.jsonl"

// TestGoldenText pins the default text report over the committed batch
// fixture. Regenerate with OBS_UPDATE_GOLDEN=1 go test ./cmd/journalstat.
func TestGoldenText(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{fixture}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}

	golden := filepath.Join("testdata", "batch.golden")
	if os.Getenv("OBS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report diverged from %s\ngot:\n%swant:\n%s", golden, out.Bytes(), want)
	}
	// The build identity annotates the text report on stderr (kept off
	// stdout so the golden is toolchain-independent), matching the
	// muml_build_info gauge on /metrics.
	if !strings.Contains(errBuf.String(), "muml_build_info: version=") {
		t.Errorf("stderr misses the build-info line: %q", errBuf.String())
	}
}

func TestJSONFormat(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-format", "json", fixture}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var stats struct {
		Events   int            `json:"events"`
		Traces   int            `json:"traces"`
		Verdicts map[string]int `json:"verdicts"`
		Phases   map[string]struct {
			Count   int64 `json:"count"`
			TotalNS int64 `json:"total_ns"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(out.Bytes(), &stats); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if stats.Events != 16 || stats.Traces != 2 {
		t.Errorf("events=%d traces=%d", stats.Events, stats.Traces)
	}
	if stats.Phases["check"].TotalNS != 4000000 || stats.Phases["compose"].Count != 2 {
		t.Errorf("phases %+v", stats.Phases)
	}
	if stats.Verdicts["proven"] != 2 || stats.Verdicts["violation"] != 1 || stats.Verdicts["error"] != 1 {
		t.Errorf("verdicts %v", stats.Verdicts)
	}
}

func TestTopKBoundsSlowest(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-top", "1", fixture}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "alpha") || strings.Contains(out.String(), "beta") {
		t.Errorf("-top 1 should keep only the slowest instance:\n%s", out.String())
	}
}

func TestDiffMode(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-diff", fixture, fixture}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"baseline:", "candidate:", "1.00x", "verdicts (unchanged)", "events: 16→16"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output misses %q:\n%s", want, out.String())
		}
	}
}

func TestTraceExport(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-trace", traceOut, fixture}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace export is empty")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // no journals
		{"-format", "xml", fixture},          // unknown format
		{"-diff", fixture},                   // diff needs two
		{"-diff", fixture, fixture, fixture}, // diff takes exactly two
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, nil, &out, &errBuf); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"testdata/absent.jsonl"}, nil, &out, &errBuf); code != 1 {
		t.Errorf("missing journal: exit %d, want 1", code)
	}
}

const validJournal = `{"seq":1,"kind":"iteration_start","iter":0}
{"seq":2,"kind":"check_result","iter":0}
{"seq":3,"kind":"verdict","iter":0}
`

func TestValidateJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(validJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-validate", path}, nil, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if want := path + ": 3 events ok\n"; out.String() != want {
		t.Fatalf("output %q, want %q", out.String(), want)
	}
}

func TestValidateJournalFromStdin(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-validate", "-"}, strings.NewReader(validJournal), &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if out.String() != "-: 3 events ok\n" {
		t.Fatalf("unexpected output: %q", out.String())
	}
}

func TestValidateCorruptedJournal(t *testing.T) {
	// A duplicated sequence number and a trailing garbage line must both
	// fail with the data exit code.
	for name, content := range map[string]string{
		"dup-seq": `{"seq":1,"kind":"note","iter":-1}` + "\n" + `{"seq":1,"kind":"note","iter":-1}` + "\n",
		"garbage": validJournal + "not json\n",
	} {
		path := filepath.Join(t.TempDir(), name+".jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errBuf bytes.Buffer
		if code := run([]string{"-validate", path}, nil, &out, &errBuf); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
		if !strings.Contains(errBuf.String(), "journalstat: "+path+":") {
			t.Errorf("%s: missing diagnostic, stderr: %q", name, errBuf.String())
		}
	}
}

func TestValidateMissingFile(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-validate", filepath.Join(t.TempDir(), "absent.jsonl")}, nil, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestValidateUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-validate"},
		{"-validate", "-no-such-flag", fixture},
		{"-validate", "-diff", fixture, fixture},
		{"-validate", "-format", "json", fixture},
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, nil, &out, &errBuf); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestValidateReportsFirstViolatingSeq(t *testing.T) {
	// A broken span tree (the parent span was never opened) must report
	// the sequence number of the first violating event, and validation
	// stops at the first malformed journal.
	journal := `{"seq":1,"kind":"iteration_start","iter":0,"trace":"r","span":1}` + "\n" +
		`{"seq":2,"kind":"check_result","iter":0,"trace":"r","parent":1}` + "\n" +
		`{"seq":3,"kind":"replay_step","iter":0,"trace":"r","parent":7}` + "\n"
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-validate", fixture, path, fixture}, nil, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "seq 3") {
		t.Errorf("diagnostic does not name the violating seq: %q", errBuf.String())
	}
	if want := fixture + ": 16 events ok\n"; out.String() != want {
		t.Errorf("output %q, want only the valid journal before the broken one (%q)", out.String(), want)
	}
}
