package memostore_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"muml/internal/automata"
	"muml/internal/memostore"
)

// receiverModel builds a small learned model and the universe over its
// alphabets, so the store round-trips a real chaotic closure (with
// provenance parts and chaos states) rather than a synthetic payload.
func receiverModel(t *testing.T) (*automata.Incomplete, *automata.CompiledUniverse) {
	t.Helper()
	r := automata.New("receiver", automata.NewSignalSet("msg"), automata.EmptySet)
	r0 := r.MustAddState("waiting")
	r1 := r.MustAddState("got")
	r.MustAddTransition(r0, automata.Interact([]automata.Signal{"msg"}, nil), r1)
	r.MustAddTransition(r1, automata.Interaction{}, r1)
	r.MarkInitial(r0)
	m := automata.NewIncomplete(r)
	refused := automata.Interaction{}
	if _, err := m.Learn(automata.ObservedRun{Initial: "waiting", Blocked: &refused}, nil); err != nil {
		t.Fatal(err)
	}
	return m, automata.CompileUniverse(automata.Universe(automata.UniverseSingleton), r.Inputs(), r.Outputs())
}

// recordFiles returns the names of the record files in dir, for tests that
// need to corrupt or count them.
func recordFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".memo") {
			names = append(names, de.Name())
		}
	}
	return names
}

// TestStoreWarmStartRoundTrip is the restart scenario end to end: process 1
// builds a chaotic closure through a store-backed cache and exits; process
// 2 (a fresh cache and a fresh Store over the same directory) warm-starts
// the identical closure from disk, and the result is structurally
// identical to a fresh build.
func TestStoreWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, u := receiverModel(t)
	want := automata.ChaoticClosure(m, automata.Universe(automata.UniverseSingleton))

	st1, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo1 := automata.NewMemoCache(nil)
	memo1.SetBackend(st1)
	if _, err := automata.ChaoticClosureCtx(context.Background(), m, u, memo1); err != nil {
		t.Fatal(err)
	}
	hits1, misses1, _ := memo1.Stats()
	if hits1 != 0 || misses1 != 1 {
		t.Fatalf("run 1 memo stats = %d hits / %d misses, want 0/1", hits1, misses1)
	}
	if _, _, _, entries, _ := st1.Stats(); entries != 1 {
		t.Fatalf("store entries after run 1 = %d, want 1", entries)
	}
	if names := recordFiles(t, dir); len(names) != 1 || !strings.HasPrefix(names[0], "closure-") {
		t.Fatalf("record files after run 1 = %v, want one closure-<a>-<b>.memo", names)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new Store indexes the directory, a new cache has no
	// memory of the closure — yet the lookup hits, served from disk.
	st2, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	memo2 := automata.NewMemoCache(nil)
	memo2.SetBackend(st2)
	got, err := automata.ChaoticClosureCtx(context.Background(), m, u, memo2)
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2, _ := memo2.Stats()
	if hits2 != 1 || misses2 != 0 {
		t.Fatalf("run 2 memo stats = %d hits / %d misses, want 1/0", hits2, misses2)
	}
	if hits2 <= hits1 {
		t.Fatalf("restart did not raise the hit count: %d then %d", hits1, hits2)
	}
	if sh, sm, _, _, _ := st2.Stats(); sh != 1 || sm != 0 {
		t.Fatalf("store stats after warm start = %d hits / %d misses, want 1/0", sh, sm)
	}
	if err := automata.EquivalentReachable(got, want); err != nil {
		t.Fatalf("warm-started closure diverged from a fresh build: %v", err)
	}
}

func TestStoreCorruptRecordEvictedNeverReturned(t *testing.T) {
	dir := t.TempDir()
	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := []byte("a perfectly good payload")
	st.Save("closure", 1, 2, payload)
	names := recordFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("record files = %v, want exactly one", names)
	}
	path := filepath.Join(dir, names[0])

	// Flip one payload byte: the checksum no longer matches.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, ok := st.Load("closure", 1, 2); ok {
		t.Fatalf("corrupt record returned: %q", p)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt record not evicted from disk: %v", err)
	}
	if _, _, evictions, entries, _ := st.Stats(); evictions != 1 || entries != 0 {
		t.Fatalf("stats = %d evictions, %d entries, want 1, 0", evictions, entries)
	}

	// Truncation (the crash-mid-write shape atomic renames prevent, but a
	// torn disk can still produce): same contract.
	st.Save("closure", 1, 2, payload)
	path = filepath.Join(dir, recordFiles(t, dir)[0])
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load("closure", 1, 2); ok {
		t.Fatal("truncated record returned")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated record not evicted from disk: %v", err)
	}

	// A record truncated while the store was down must not survive reopen.
	st.Save("closure", 3, 4, payload)
	path = filepath.Join(dir, recordFiles(t, dir)[0])
	if err := os.Truncate(path, 12); err != nil {
		t.Fatal(err)
	}
	st2, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Load("closure", 3, 4); ok {
		t.Fatal("truncated record returned after reopen")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st, err := memostore.Open(t.TempDir(), memostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payloadFor := func(k uint64) []byte {
		return bytes.Repeat([]byte{byte('a' + k)}, int(8+k))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				k := uint64((i + w) % 10)
				st.Save("closure", k, k, payloadFor(k))
				if p, ok := st.Load("closure", k, k); ok && !bytes.Equal(p, payloadFor(k)) {
					t.Errorf("key %d: read %q, want %q", k, p, payloadFor(k))
				}
			}
		}(w)
	}
	wg.Wait()
	if _, _, _, entries, _ := st.Stats(); entries != 10 {
		t.Fatalf("entries = %d, want 10 (first save per key wins)", entries)
	}
}

func TestStoreSizeCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	st, err := memostore.Open(dir, memostore.Options{MaxBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	pay := bytes.Repeat([]byte("x"), 40)
	st.Save("closure", 1, 0, pay)
	st.Save("closure", 2, 0, pay)
	if _, ok := st.Load("closure", 1, 0); !ok { // touch 1: record 2 is now LRU
		t.Fatal("record 1 missing before the sweep")
	}
	st.Save("closure", 3, 0, pay) // 120 > 100: sweep evicts record 2

	if _, ok := st.Load("closure", 2, 0); ok {
		t.Fatal("least-recently-used record survived the size cap")
	}
	for _, k := range []uint64{1, 3} {
		if _, ok := st.Load("closure", k, 0); !ok {
			t.Fatalf("record %d evicted, want only the LRU gone", k)
		}
	}
	if _, _, evictions, entries, b := st.Stats(); evictions != 1 || entries != 2 || b != 80 {
		t.Fatalf("stats = %d evictions, %d entries, %d bytes; want 1, 2, 80", evictions, entries, b)
	}

	// An oversized record must not evict itself: the sweep spares the
	// just-written record even though the store stays over the cap.
	st.Save("closure", 9, 0, bytes.Repeat([]byte("y"), 500))
	if _, ok := st.Load("closure", 9, 0); !ok {
		t.Fatal("just-written oversized record was swept away")
	}
	if _, _, _, entries, _ := st.Stats(); entries != 1 {
		t.Fatalf("entries = %d, want 1 (everything but the oversized record evicted)", entries)
	}
}

func TestStoreUnboundedAndNilSafety(t *testing.T) {
	st, err := memostore.Open(t.TempDir(), memostore.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := uint64(0); k < 8; k++ {
		st.Save("closure", k, 0, bytes.Repeat([]byte("z"), 64))
	}
	if _, _, evictions, entries, _ := st.Stats(); evictions != 0 || entries != 8 {
		t.Fatalf("unbounded store stats = %d evictions, %d entries; want 0, 8", evictions, entries)
	}

	// A nil *Store is a valid disabled backend.
	var nilStore *memostore.Store
	if _, ok := nilStore.Load("closure", 1, 2); ok {
		t.Fatal("nil store claimed a hit")
	}
	nilStore.Save("closure", 1, 2, []byte("x"))
	if err := nilStore.Close(); err != nil {
		t.Fatal(err)
	}
}
