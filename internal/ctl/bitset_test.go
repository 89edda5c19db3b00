package ctl

import (
	"math/rand"
	"testing"
)

func TestBitsetTailMasking(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 130} {
		b := newBitset(n)
		b.fill(n)
		if got := b.count(); got != n {
			t.Fatalf("fill(%d).count() = %d", n, got)
		}
		c := newBitset(n)
		c.complementOf(b, n)
		if got := c.count(); got != 0 {
			t.Fatalf("complement of full over %d states has %d bits", n, got)
		}
		c.complementOf(c, n) // in-place complement back to full
		if !c.equal(b) {
			t.Fatalf("in-place double complement over %d states not identity", n)
		}
	}
}

func TestBitsetOpsMatchBools(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		x, y := newBitset(n), newBitset(n)
		bx, by := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				x.set(i)
				bx[i] = true
			}
			if rng.Intn(2) == 0 {
				y.set(i)
				by[i] = true
			}
		}
		check := func(op string, got bitset, want func(a, b bool) bool) {
			t.Helper()
			for i := 0; i < n; i++ {
				if got.test(i) != want(bx[i], by[i]) {
					t.Fatalf("n=%d %s mismatch at bit %d", n, op, i)
				}
			}
		}
		z := newBitset(n)
		z.copyFrom(x)
		z.and(y)
		check("and", z, func(a, b bool) bool { return a && b })
		z.copyFrom(x)
		z.or(y)
		check("or", z, func(a, b bool) bool { return a || b })
		z.copyFrom(x)
		z.andNot(y)
		check("andNot", z, func(a, b bool) bool { return a && !b })

		want := 0
		for _, v := range bx {
			if v {
				want++
			}
		}
		if got := x.count(); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}

		var idx []int32
		idx = x.appendSet(idx)
		if len(idx) != want {
			t.Fatalf("appendSet returned %d indices, want %d", len(idx), want)
		}
		prev := int32(-1)
		for _, i := range idx {
			if i <= prev {
				t.Fatalf("appendSet not ascending: %d after %d", i, prev)
			}
			prev = i
			if !bx[i] {
				t.Fatalf("appendSet returned unset bit %d", i)
			}
		}
	}
}

// FuzzBitsetEquivalence cross-checks the bitset Checker against the frozen
// Reference engine on fuzzer-chosen formulas over small random automata.
func FuzzBitsetEquivalence(f *testing.F) {
	for _, s := range []string{
		"AG p", "AF q", "E[p U q]", "A[p U q]", "EG p", "AG (p -> AF[1,3] q)",
		"E<> deadlock", "AX (p or deadlock)", "EG[0,4] not p", "A[] not q",
		"AG[2,2] p", "EG[0,0] q", "EG deadlock", "AX deadlock", "EG[1,3] (p or deadlock)",
		"AF EG[1,3] p",
	} {
		f.Add(s, int64(1), uint8(5))
	}
	f.Fuzz(func(t *testing.T, input string, seed int64, states uint8) {
		if len(input) > 256 {
			return
		}
		formula, err := Parse(input)
		if err != nil {
			return
		}
		if maxBound(formula) > 32 {
			return // keep layered bounded-operator tables small
		}
		rng := rand.New(rand.NewSource(seed))
		a := randomLabeledAutomaton(rng, 2+int(states%8))
		ref := NewReference(a)
		want := ref.Sat(formula)
		checker := NewChecker(a)
		got := checker.Sat(formula)
		for s := range want {
			if want[s] != got[s] {
				t.Fatalf("Sat(%s) differs at state %d: ref=%v bitset=%v\n%s",
					formula, s, want[s], got[s], a.Dot())
			}
		}
		if rh, ch := ref.Holds(formula), checker.Holds(formula); rh != ch {
			t.Fatalf("Holds(%s) differs: ref=%v bitset=%v", formula, rh, ch)
		}
	})
}
