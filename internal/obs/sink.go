package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// JSONLSink writes one JSON object per event, one event per line — the
// machine-readable journal behind the -journal flag. Lines conform to the
// schema checked by ValidateJSONL, so `journalstat -validate` (and the
// Makefile's obs-smoke gate) can verify a captured journal byte-for-byte.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // underlying closer, if any
	err error
}

// NewJSONLSink wraps a writer. If the writer is also an io.Closer it is
// closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit encodes the event as one JSON line. Encoding errors are sticky and
// reported by Close.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Close flushes buffered lines and closes the underlying writer.
func (s *JSONLSink) Close() error {
	flushErr := s.w.Flush()
	var closeErr error
	if s.c != nil {
		closeErr = s.c.Close()
	}
	switch {
	case s.err != nil:
		return s.err
	case flushErr != nil:
		return flushErr
	default:
		return closeErr
	}
}

// TextSink renders events human-readably, one line per event with sorted
// payload fields; multi-line string payloads (paper-style trace listings)
// are printed indented underneath, so `legint -verbose` output stays
// recognizable.
type TextSink struct {
	w io.Writer
	// Indent is prepended to every emitted line.
	Indent string
}

// NewTextSink wraps a writer.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

func (s *TextSink) Emit(e Event) {
	var b strings.Builder
	b.WriteString(s.Indent)
	fmt.Fprintf(&b, "#%04d %-16s", e.Seq, e.Kind)
	if e.Iter >= 0 {
		fmt.Fprintf(&b, " iter=%d", e.Iter)
	}
	if e.DurNS > 0 {
		fmt.Fprintf(&b, " dur=%s", time.Duration(e.DurNS).Round(time.Microsecond))
	}
	for _, k := range sortedKeys(e.N) {
		fmt.Fprintf(&b, " %s=%d", k, e.N[k])
	}
	var blocks []string
	for _, k := range sortedKeys(e.S) {
		v := e.S[k]
		if strings.Contains(v, "\n") {
			blocks = append(blocks, k)
			continue
		}
		fmt.Fprintf(&b, " %s=%s", k, v)
	}
	b.WriteByte('\n')
	for _, k := range blocks {
		fmt.Fprintf(&b, "%s  %s:\n", s.Indent, k)
		for _, line := range strings.Split(strings.TrimRight(e.S[k], "\n"), "\n") {
			b.WriteString(s.Indent)
			b.WriteString("    ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	io.WriteString(s.w, b.String())
}

// MemorySink collects emitted events in order; intended for tests.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far, in emission order.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// TeeSink forwards each event to several sinks in order.
type TeeSink []Sink

func (t TeeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// Close closes every member sink that supports it, returning the first
// error.
func (t TeeSink) Close() error {
	var first error
	for _, s := range t {
		if c, ok := s.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
