// Package bitset provides dense bitsets sized at construction time.
//
// Set is the per-node color plate of the edge coloring; Matrix holds
// the adjacency the radio engine probes on its hot path. The hot
// operations are membership tests and AndCountSole over matrix rows,
// so both are implemented without allocation.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, n) given to
// New. The zero value is unusable; construct with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Add inserts i into the set. Out-of-range values are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. Out-of-range values are ignored.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// NthElem returns the n-th smallest element (0-indexed) and true, or
// (0, false) if the set has fewer than n+1 elements.
func (s *Set) NthElem(n int) (int, bool) {
	if n < 0 {
		return 0, false
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if n >= c {
			n -= c
			continue
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if n == 0 {
				return wi*wordBits + b, true
			}
			n--
			w &= w - 1
		}
	}
	return 0, false
}

// Matrix is a dense rows×cols bit matrix backed by a single allocation.
// It stores the adjacency structure the radio engine probes on its hot
// path: Get(r, c) is one shift-and-mask, with no per-row pointer chase
// or bounds surprises, and building the whole matrix costs one make.
// The zero value is unusable; construct with NewMatrix.
type Matrix struct {
	words  []uint64
	rows   int
	cols   int
	stride int // words per row
}

// NewMatrix returns an all-zero rows×cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	stride := (cols + wordBits - 1) / wordBits
	return &Matrix{
		words:  make([]uint64, rows*stride),
		rows:   rows,
		cols:   cols,
		stride: stride,
	}
}

// Set sets bit (r, c). Out-of-range coordinates are ignored.
func (m *Matrix) Set(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return
	}
	m.words[r*m.stride+c/wordBits] |= 1 << (uint(c) % wordBits)
}

// Get reports bit (r, c). Out-of-range coordinates read as false.
func (m *Matrix) Get(r, c int) bool {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return false
	}
	return m.words[r*m.stride+c/wordBits]&(1<<(uint(c)%wordBits)) != 0
}

// Unset clears bit (r, c). Out-of-range coordinates are ignored.
func (m *Matrix) Unset(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return
	}
	m.words[r*m.stride+c/wordBits] &^= 1 << (uint(c) % wordBits)
}

// Clone returns a deep copy of m. Dynamic topology views clone the
// static adjacency matrix once per run and mutate the copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		words:  make([]uint64, len(m.words)),
		rows:   m.rows,
		cols:   m.cols,
		stride: m.stride,
	}
	copy(c.words, m.words)
	return c
}

// EqualMatrix reports whether m and o have the same shape and bits.
func (m *Matrix) EqualMatrix(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Stride returns the number of words backing one row. Rows returned by
// Row have exactly this length.
func (m *Matrix) Stride() int { return m.stride }

// Row returns row r's backing words. The slice aliases the matrix:
// callers must treat it as read-only (mutate through Set/Unset) and
// must not hold it across a Clone. Out-of-range rows return nil.
//
// This is the radio engine's whole-channel resolution hook: a
// listener's neighbor row AND a channel's broadcaster row, swept with
// popcounts, resolves silence/sole-talker/contention without walking
// either adjacency or broadcaster lists.
func (m *Matrix) Row(r int) []uint64 {
	if r < 0 || r >= m.rows {
		return nil
	}
	return m.words[r*m.stride : (r+1)*m.stride : (r+1)*m.stride]
}

// EqualWords reports whether two equal-length word slices hold the
// same bits. The radio engine compares a listener's current adjacency
// row against its base-topology row to skip the partition-loss
// counterfactual when nothing incident to the listener has churned.
func EqualWords(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// AndCountSole intersects two equal-length word slices and returns the
// number of set bits in the intersection, capped at 2 (callers only
// distinguish silence / sole talker / contention), together with the
// bit index of the sole set bit when the count is exactly 1 (-1
// otherwise). The sweep early-exits as soon as two bits are seen.
func AndCountSole(a, b []uint64) (count int, sole int) {
	sole = -1
	for i, w := range a {
		x := w & b[i]
		if x == 0 {
			continue
		}
		c := bits.OnesCount64(x)
		count += c
		if count > 1 {
			return 2, -1
		}
		sole = i*wordBits + bits.TrailingZeros64(x)
	}
	if count != 1 {
		sole = -1
	}
	return count, sole
}
