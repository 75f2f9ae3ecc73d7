// Package bitset provides dense bit matrices sized at construction
// time.
//
// A Matrix holds the adjacency the radio engine probes on its hot
// path, and the color plates of the edge coloring, one row per node.
// The hot operations are membership tests, AndCountSole over rows and
// the plate operations Count and NthElem, so all are implemented
// without allocation.
package bitset

import "math/bits"

const wordBits = 64

// Matrix is a dense rows×cols bit matrix backed by a single allocation.
// It stores the adjacency structure the radio engine probes on its hot
// path: Get(r, c) is one shift-and-mask, with no per-row pointer chase
// or bounds surprises, and building the whole matrix costs one make.
// The zero value is an empty matrix; construct with NewMatrix or Reset.
type Matrix struct {
	words  []uint64
	rows   int
	cols   int
	stride int // words per row
}

// NewMatrix returns an all-zero rows×cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	m := new(Matrix)
	m.Reset(rows, cols)
	return m
}

// Reset makes m an all-zero rows×cols bit matrix, reusing its words
// when they are enough. The zero Matrix may be Reset.
func (m *Matrix) Reset(rows, cols int) {
	rows, cols = max(rows, 0), max(cols, 0)
	stride := (cols + wordBits - 1) / wordBits
	if n := rows * stride; cap(m.words) >= n {
		m.words = m.words[:n]
		clear(m.words)
	} else {
		m.words = make([]uint64, n)
	}
	m.rows, m.cols, m.stride = rows, cols, stride
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

// Fill sets every bit of m, so each row holds all of [0, cols). The
// words past the last column stay clear, which Count relies on.
func (m *Matrix) Fill() {
	if m.stride == 0 {
		return
	}
	last := ^uint64(0)
	if r := m.cols % wordBits; r != 0 {
		last = 1<<uint(r) - 1
	}
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	for r := 1; r <= m.rows; r++ {
		m.words[r*m.stride-1] = last
	}
}

// Count returns the number of set bits in row r; an out-of-range row
// counts 0.
func (m *Matrix) Count(r int) int {
	c := 0
	for _, w := range m.Row(r) {
		c += bits.OnesCount64(w)
	}
	return c
}

// NthElem returns the column of row r's n-th set bit (0-indexed) and
// true, or (0, false) if the row has fewer than n+1 set bits or r is
// out of range.
func (m *Matrix) NthElem(r, n int) (int, bool) {
	if n < 0 {
		return 0, false
	}
	for wi, w := range m.Row(r) {
		c := bits.OnesCount64(w)
		if n >= c {
			n -= c
			continue
		}
		for ; n > 0; n-- {
			w &= w - 1
		}
		return wi*wordBits + bits.TrailingZeros64(w), true
	}
	return 0, false
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
