package automata

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestMemoCodecRoundTrip(t *testing.T) {
	s, r := senderReceiver(t)
	want := MustCompose("sys", s, r)

	data, err := MarshalMemo(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMemo(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := EquivalentReachable(got, want); err != nil {
		t.Fatalf("decoded automaton diverged: %v", err)
	}
	// EquivalentReachable already checks names, labels, parts, initial
	// order, and adjacency; the rest of the full-fidelity contract is the
	// leaf decomposition and the alphabets feeding the fingerprint.
	if len(got.leaves) != len(want.leaves) {
		t.Fatalf("leaves = %d, want %d", len(got.leaves), len(want.leaves))
	}
	for i := range want.leaves {
		w, g := want.leaves[i], got.leaves[i]
		if g.name != w.name || !g.inputs.Equal(w.inputs) || !g.outputs.Equal(w.outputs) {
			t.Fatalf("leaf %d = %q(%v,%v), want %q(%v,%v)",
				i, g.name, g.inputs, g.outputs, w.name, w.inputs, w.outputs)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint changed across the codec: %x vs %x", got.Fingerprint(), want.Fingerprint())
	}
}

func TestMemoCodecRejectsVersionMismatch(t *testing.T) {
	s, r := senderReceiver(t)
	data, err := MarshalMemo(MustCompose("sys", s, r))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["v"] = memoCodecVersion + 1
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalMemo(bad); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("UnmarshalMemo(version+1) = %v, want codec version error", err)
	}
}

func TestMemoCodecRejectsMalformedDocs(t *testing.T) {
	wide, err := json.Marshal(map[string]any{"v": memoCodecVersion, "name": "x", "in": signalRange(0, 129),
		"states": []map[string]string{{"name": "s"}}, "adj": [][]any{{}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, doc string }{
		{"not json", `{`},
		{"missing name", `{"v":1}`},
		{"row count mismatch", `{"v":1,"name":"x","states":[{"name":"a"}]}`},
		{"edge target out of range", `{"v":1,"name":"x","states":[{"name":"a"}],"adj":[[{"to":5}]]}`},
		{"duplicate state", `{"v":1,"name":"x","states":[{"name":"a"},{"name":"a"}],"adj":[[],[]]}`},
		{"empty state name", `{"v":1,"name":"x","states":[{"name":""}],"adj":[[]]}`},
		{"initial out of range", `{"v":1,"name":"x","states":[{"name":"a"}],"adj":[[]],"initial":[3]}`},
		{"label outside alphabets", `{"v":1,"name":"x","in":["a"],"states":[{"name":"s"}],"adj":[[{"in":["b"],"to":0}]]}`},
		{"input signal as output", `{"v":1,"name":"x","in":["a"],"out":["b"],"states":[{"name":"s"}],"adj":[[{"out":["a"],"to":0}]]}`},
		{"repeated edge", `{"v":1,"name":"x","in":["a"],"states":[{"name":"s"}],"adj":[[{"in":["a"],"to":0},{"in":["a"],"to":0}]]}`},
		{"alphabet beyond interner", string(wide)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalMemo([]byte(tc.doc)); err == nil {
				t.Fatalf("UnmarshalMemo(%s) succeeded, want error", tc.doc)
			}
		})
	}
}

// mapBackend is an in-memory MemoBackend double recording traffic.
type mapBackend struct {
	mu           sync.Mutex
	m            map[string][]byte
	loads, saves int
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string][]byte)} }

func (b *mapBackend) key(op string, x, y uint64) string {
	return fmt.Sprintf("%s/%x/%x", op, x, y)
}

func (b *mapBackend) Load(op string, x, y uint64) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	p, ok := b.m[b.key(op, x, y)]
	return p, ok
}

func (b *mapBackend) Save(op string, x, y uint64, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.saves++
	b.m[b.key(op, x, y)] = append([]byte(nil), payload...)
}

// closureProblem returns a learned model with transitions and a refusal,
// and the singleton universe compiled over its alphabets.
func closureProblem(t *testing.T) (*Incomplete, *CompiledUniverse) {
	t.Helper()
	_, r := senderReceiver(t)
	m := NewIncomplete(r)
	refused := Interaction{}
	if _, err := m.Learn(ObservedRun{Initial: "waiting", Blocked: &refused}, nil); err != nil {
		t.Fatal(err)
	}
	return m, CompileUniverse(Universe(UniverseSingleton), r.Inputs(), r.Outputs())
}

func TestMemoCacheBackendWriteThroughAndWarmStart(t *testing.T) {
	m, u := closureProblem(t)
	want := ChaoticClosure(m, Universe(UniverseSingleton))
	be := newMapBackend()

	// First process: cold cache, cold backend — miss, then write-through.
	memo1 := NewMemoCache(nil)
	memo1.SetBackend(be)
	if _, err := ChaoticClosureCtx(context.Background(), m, u, memo1); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := memo1.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("cold cache stats = %d hits / %d misses, want 0/1", hits, misses)
	}
	if be.saves != 1 {
		t.Fatalf("backend saves = %d, want 1 (write-through)", be.saves)
	}
	if _, ok := be.m[be.key("closure", m.Fingerprint(), u.fingerprint())]; !ok {
		t.Fatalf("write-through stored %v, want one closure record under the model and universe fingerprints", be.m)
	}

	// Second process: fresh cache, warm backend — the memory miss falls
	// through, decodes, and counts as a cache hit.
	memo2 := NewMemoCache(nil)
	memo2.SetBackend(be)
	got, err := ChaoticClosureCtx(context.Background(), m, u, memo2)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := memo2.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("warm-start stats = %d hits / %d misses, want 1/0", hits, misses)
	}
	if err := EquivalentReachable(got, want); err != nil {
		t.Fatalf("warm-started closure diverged from a fresh build: %v", err)
	}

	// The promoted entry serves later lookups from memory: no second load.
	loadsAfterWarmStart := be.loads
	if _, err := ChaoticClosureCtx(context.Background(), m, u, memo2); err != nil {
		t.Fatal(err)
	}
	if be.loads != loadsAfterWarmStart {
		t.Fatalf("backend loads grew %d -> %d after promotion; want in-memory hit", loadsAfterWarmStart, be.loads)
	}
}

func TestMemoCacheBackendUndecodablePayloadIsAMiss(t *testing.T) {
	m, u := closureProblem(t)
	be := newMapBackend()
	be.Save("closure", m.Fingerprint(), u.fingerprint(), []byte("not a codec payload"))

	memo := NewMemoCache(nil)
	memo.SetBackend(be)
	got, err := ChaoticClosureCtx(context.Background(), m, u, memo)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := memo.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 0/1 (bad payload must not hit)", hits, misses)
	}
	if err := EquivalentReachable(got, ChaoticClosure(m, Universe(UniverseSingleton))); err != nil {
		t.Fatalf("recomputed closure diverged: %v", err)
	}
}

// FuzzUnmarshalMemo feeds the memo codec arbitrary bytes, seeded with
// marshalled closures and products. The decoder must never panic, and a
// record it accepts must round-trip stably: re-marshalling the decoded
// automaton and decoding that again reproduces the same bytes.
func FuzzUnmarshalMemo(f *testing.F) {
	s, r := senderReceiver(f)
	product := MustCompose("sys", s, r)
	model := NewIncomplete(r.Clone("receiver"))
	closure := ChaoticClosure(model, Universe(UniverseSingleton))
	closedProduct := MustCompose("system", s, closure)
	for _, a := range []*Automaton{product, closure, closedProduct} {
		data, err := MarshalMemo(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"name":"x","in":["a"],"states":[{"name":"s"}],"adj":[[{"in":["a"],"to":0},{"in":["a"],"to":0}]]}`))
	f.Add([]byte(`{"v":1,"name":"x","in":["a","a"],"out":["b"],"states":[{"name":"s","parts":["p"]}],"adj":[[{"in":["a","a"],"out":["b"],"to":0}]],"initial":[0,0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalMemo(data)
		if err != nil {
			return
		}
		once, err := MarshalMemo(a)
		if err != nil {
			t.Fatalf("accepted record fails to marshal: %v", err)
		}
		back, err := UnmarshalMemo(once)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, once)
		}
		twice, err := MarshalMemo(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(once) != string(twice) {
			t.Fatalf("round trip is unstable:\n%s\n%s", once, twice)
		}
	})
}
