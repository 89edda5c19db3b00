package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"testing"

	"muml/internal/automata"
	"muml/internal/ctl"
)

// writeField writes one length-prefixed field into the digest, so that no
// two different field sequences hash alike.
func writeField(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// writeAutomaton writes the EncodeJSON and Dot bytes of a.
func writeAutomaton(t *testing.T, h hash.Hash, a *automata.Automaton) {
	data, err := automata.EncodeJSON(a)
	if err != nil {
		t.Error(err)
	}
	writeField(h, data)
	writeField(h, []byte(a.Dot()))
}

func writeProperty(h hash.Hash, f ctl.Formula) {
	text := "<none>"
	if f != nil {
		text = f.String()
	}
	writeField(h, []byte(text))
}

// instanceDigest hashes everything an instance of New hands its users:
// the context, the legacy, the truth and the true composition (EncodeJSON
// and Dot each), the property and both truth flags.
func instanceDigest(t *testing.T, seed int64, cfg Config) [sha256.Size]byte {
	inst, err := New(seed, cfg)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return [sha256.Size]byte{}
	}
	truth, err := inst.Truth()
	if err != nil {
		t.Errorf("seed %d: truth: %v", seed, err)
		return [sha256.Size]byte{}
	}
	sys, err := inst.TrueComposition()
	if err != nil {
		t.Errorf("seed %d: true composition: %v", seed, err)
		return [sha256.Size]byte{}
	}
	h := sha256.New()
	for _, a := range []*automata.Automaton{inst.Context, inst.Legacy, truth, sys} {
		writeAutomaton(t, h, a)
	}
	writeProperty(h, inst.Property)
	writeField(h, []byte(fmt.Sprint(inst.TruePropertyHolds, inst.TrueDeadlockFree)))
	return [sha256.Size]byte(h.Sum(nil))
}

// multiDigest hashes a NewMulti instance: the context, every legacy, the
// true composition and the property.
func multiDigest(t *testing.T, seed int64, k int) [sha256.Size]byte {
	inst, err := NewMulti(seed, DefaultConfig(), k)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return [sha256.Size]byte{}
	}
	sys, err := inst.TrueComposition()
	if err != nil {
		t.Errorf("seed %d: true composition: %v", seed, err)
		return [sha256.Size]byte{}
	}
	h := sha256.New()
	writeAutomaton(t, h, inst.Context)
	for _, a := range inst.Legacies {
		writeAutomaton(t, h, a)
	}
	writeAutomaton(t, h, sys)
	writeProperty(h, inst.Property)
	return [sha256.Size]byte(h.Sum(nil))
}

// corpusDigest hashes the per-seed digests of seeds 1..n in seed order.
// Four goroutines compute them on interleaved seeds, so the digest also
// shows that instances generated concurrently are those generated alone.
func corpusDigest(n int, digest func(seed int64) [sha256.Size]byte) string {
	sums := make([][sha256.Size]byte, n)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				sums[i] = digest(int64(i + 1))
			}
		}()
	}
	wg.Wait()
	h := sha256.New()
	for _, s := range sums {
		h.Write(s[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestInstancesPinned pins every generated instance, byte for byte, to
// the digests the generator produced before its ground truth was read off
// M_r and its PRNG and checker were pooled: the same seed must keep
// giving the same instance, whatever changes how it is computed.
func TestInstancesPinned(t *testing.T) {
	single := func(cfg Config) func(int64) [sha256.Size]byte {
		return func(seed int64) [sha256.Size]byte { return instanceDigest(t, seed, cfg) }
	}
	multi := func(k int) func(int64) [sha256.Size]byte {
		return func(seed int64) [sha256.Size]byte { return multiDigest(t, seed, k) }
	}
	cases := []struct {
		name   string
		n      int
		digest func(seed int64) [sha256.Size]byte
		want   string
	}{
		{"default", 2000, single(DefaultConfig()), "84e25c4ccc4ebf45c0c26b4997cb3181f19172baa441225f39e359345872675b"},
		{"wide", 2000, single(WideConfig()), "8e0275ae69050da3f5f25aeeb32bdd722580d86e3c80e60ce79ec1bcf607ce20"},
		{"nondet", 2000, single(NondetConfig()), "5feb5ba44831585fa8e17a806d3f36794e1380f732cf3e686173e9ba0efa42d4"},
		{"multi-2", 200, multi(2), "2d5b971d5dc52e1580489d3ef7b04129f45b8f4a0e1e877b758475aceee5f194"},
		{"multi-3", 200, multi(3), "aa14352c59c774af2a3c696ef51d6ecf53bee24d0f35894488adfeb3bb9809ee"},
	}
	for _, c := range cases {
		if got := corpusDigest(c.n, c.digest); got != c.want {
			t.Errorf("%s seeds 1-%d: digest %s, want %s", c.name, c.n, got, c.want)
		}
	}
}
