package ctl

import "math/bits"

// bitset is a fixed-width state set: bit i is state i. All word-wise
// operations assume both operands were sized for the same state count; the
// bits past the state count in the last word are kept at zero by the
// constructors and by tail masking in complement/fill, so popcounts and
// word comparisons never see ghost states.
type bitset []uint64

// wordsFor returns the number of 64-bit words covering n states.
func wordsFor(n int) int { return (n + 63) >> 6 }

// tailMask returns the valid-bit mask of the last word for n states
// (all-ones when n is a multiple of 64).
func tailMask(n int) uint64 {
	if r := n & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

func newBitset(n int) bitset { return make(bitset, wordsFor(n)) }

func (b bitset) set(i int)       { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) test(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// copyFrom overwrites b with src (same length).
func (b bitset) copyFrom(src bitset) { copy(b, src) }

// zero clears every word.
func (b bitset) zero() { clear(b) }

// fill sets the first n bits and clears the rest.
func (b bitset) fill(n int) {
	if len(b) == 0 {
		return
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	b[len(b)-1] = tailMask(n)
}

// complementOf sets b to ¬src over n states, keeping the tail zero.
func (b bitset) complementOf(src bitset, n int) {
	for i := range b {
		b[i] = ^src[i]
	}
	if len(b) > 0 {
		b[len(b)-1] &= tailMask(n)
	}
}

func (b bitset) and(x bitset) {
	for i := range b {
		b[i] &= x[i]
	}
}

func (b bitset) or(x bitset) {
	for i := range b {
		b[i] |= x[i]
	}
}

func (b bitset) andNot(x bitset) {
	for i := range b {
		b[i] &^= x[i]
	}
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// equal reports word-wise equality (both operands same length, tails zero).
func (b bitset) equal(x bitset) bool {
	for i := range b {
		if b[i] != x[i] {
			return false
		}
	}
	return true
}

// appendSet appends the indices of set bits, in ascending order, to dst.
func (b bitset) appendSet(dst []int32) []int32 {
	for wi, w := range b {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
