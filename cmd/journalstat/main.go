// Command journalstat aggregates structured run journals (JSONL, as
// written by -journal on legint, batchverify, mbt, and experiments) into
// per-phase latency distributions (p50/p90/p99), event counts, verdict
// tallies, and the top-k slowest batch instances — the offline half of
// the observability plane. It also exports journals as Chrome
// trace-event JSON for chrome://tracing / Perfetto, diffs two journals
// for regression triage, and validates journals against the event schema.
//
//	journalstat run.jsonl
//	journalstat -format json run.jsonl more.jsonl
//	journalstat -top 10 batch.jsonl
//	journalstat -cost batch.jsonl              # cost ledger: top-k by cpu/alloc
//	journalstat -diff before.jsonl after.jsonl
//	journalstat -trace trace.json run.jsonl    # load trace.json in Perfetto
//	journalstat -validate run.jsonl
//	legint -journal /dev/stdout ... | journalstat -validate -
//
// Multiple journals aggregate into one report (the diff mode takes
// exactly two). -validate checks each journal against the event schema
// and the causal-trace invariants of DESIGN.md §10 (obs.ValidateJSONL),
// prints "<name>: N events ok" per journal and stops at the first
// malformed one, naming the violating event's sequence number; "-" reads
// standard input. Exit codes: 0 on success, 1 on a missing or malformed
// journal, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"muml/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("journalstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format   = fs.String("format", "text", "output format: text or json")
		topK     = fs.Int("top", 5, "number of slowest instances to report")
		diff     = fs.Bool("diff", false, "compare exactly two journals (baseline, candidate)")
		cost     = fs.Bool("cost", false, "append the cost-ledger report (totals plus top-k instances by cpu and allocation)")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON export to this file")
		validate = fs.Bool("validate", false, "only check each journal against the event schema and trace invariants (\"-\" reads stdin)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: journalstat [-format text|json] [-top k] [-cost] [-trace out.json] <journal.jsonl>...")
		fmt.Fprintln(stderr, "       journalstat -diff <baseline.jsonl> <candidate.jsonl>")
		fmt.Fprintln(stderr, "       journalstat -validate <journal.jsonl | ->...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *validate {
		if fs.NFlag() != 1 {
			fmt.Fprintln(stderr, "journalstat: -validate takes no other flag")
			return 2
		}
		if fs.NArg() == 0 {
			fs.Usage()
			return 2
		}
		return validateJournals(fs.Args(), stdin, stdout, stderr)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "journalstat: unknown format %q\n", *format)
		return 2
	}
	if *diff && fs.NArg() != 2 {
		fmt.Fprintln(stderr, "journalstat: -diff takes exactly two journals")
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	journals := make([][]obs.Event, fs.NArg())
	for i, name := range fs.Args() {
		events, err := decodeFile(name)
		if err != nil {
			fmt.Fprintf(stderr, "journalstat: %s: %v\n", name, err)
			return 1
		}
		journals[i] = events
	}

	if *diff {
		a := obs.Analyze(journals[0], *topK)
		b := obs.Analyze(journals[1], *topK)
		fmt.Fprintf(stdout, "baseline:  %s\ncandidate: %s\n\n", fs.Arg(0), fs.Arg(1))
		obs.DiffText(stdout, a, b)
		return 0
	}

	var all []obs.Event
	for _, events := range journals {
		all = append(all, events...)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "journalstat: %v\n", err)
			return 1
		}
		err = obs.WriteChromeTrace(f, all)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "journalstat: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace written to %s\n", *traceOut)
	}

	stats := obs.Analyze(all, *topK)
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fmt.Fprintf(stderr, "journalstat: %v\n", err)
			return 1
		}
		return 0
	}
	// The build identity goes to stderr: it annotates the report without
	// making stdout depend on the toolchain that built the binary.
	fmt.Fprintln(stderr, obs.BuildInfoLine())
	stats.RenderText(stdout)
	if *cost {
		fmt.Fprintln(stdout)
		stats.Cost.RenderCost(stdout)
	}
	return 0
}

// validateJournals runs obs.ValidateJSONL over each journal in turn and
// returns the exit code: 1 at the first missing or malformed journal.
func validateJournals(names []string, stdin io.Reader, stdout, stderr io.Writer) int {
	for _, name := range names {
		n, err := validateJournal(name, stdin)
		if err != nil {
			fmt.Fprintf(stderr, "journalstat: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d events ok\n", name, n)
	}
	return 0
}

func validateJournal(name string, stdin io.Reader) (int, error) {
	if name == "-" {
		return obs.ValidateJSONL(stdin)
	}
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return obs.ValidateJSONL(f)
}

func decodeFile(name string) ([]obs.Event, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.DecodeJSONL(f)
}
