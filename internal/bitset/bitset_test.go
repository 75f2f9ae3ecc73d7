package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The plate tests below drive one row of a three-row matrix and check
// that its neighbours stay untouched: a plate operation that spills
// across a row boundary would corrupt another node's plate.

func TestNewEmpty(t *testing.T) {
	m := NewMatrix(3, 100)
	for r := 0; r < 3; r++ {
		if got := m.Count(r); got != 0 {
			t.Errorf("Count(%d) = %d, want 0", r, got)
		}
		if _, ok := m.NthElem(r, 0); ok {
			t.Errorf("NthElem(%d, 0) found an element in an empty row", r)
		}
		for c := 0; c < 100; c++ {
			if m.Get(r, c) {
				t.Fatalf("empty matrix Get(%d, %d) = true", r, c)
			}
		}
	}
}

func TestAddRemoveContains(t *testing.T) {
	m := NewMatrix(3, 130) // rows span three words
	elems := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, e := range elems {
		m.Set(1, e)
	}
	if got := m.Count(1); got != len(elems) {
		t.Errorf("Count(1) = %d, want %d", got, len(elems))
	}
	for _, e := range elems {
		if !m.Get(1, e) {
			t.Errorf("Get(1, %d) = false, want true", e)
		}
	}
	m.Unset(1, 64)
	if m.Get(1, 64) {
		t.Error("Get(1, 64) = true after Unset")
	}
	if got := m.Count(1); got != len(elems)-1 {
		t.Errorf("Count(1) = %d, want %d", got, len(elems)-1)
	}
	if m.Count(0) != 0 || m.Count(2) != 0 {
		t.Errorf("neighbour rows hold %d and %d bits, want 0", m.Count(0), m.Count(2))
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	m := NewMatrix(3, 10)
	m.Set(1, -1)
	m.Set(1, 10)
	m.Set(1, 1000)
	for r := 0; r < 3; r++ {
		if got := m.Count(r); got != 0 {
			t.Errorf("Count(%d) = %d after out-of-range sets, want 0", r, got)
		}
	}
	if m.Get(1, -1) || m.Get(1, 10) {
		t.Error("Get out of range returned true")
	}
	m.Fill()
	if m.Count(-1) != 0 || m.Count(3) != 0 {
		t.Error("Count of an out-of-range row is not 0")
	}
	if _, ok := m.NthElem(3, 0); ok {
		t.Error("NthElem of an out-of-range row found an element")
	}
	m.Unset(1, -5) // must not panic or clear an in-range bit
	m.Unset(1, 99)
	if got := m.Count(1); got != 10 {
		t.Errorf("Count(1) = %d after out-of-range unsets, want 10", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	m := NewMatrix(3, 10)
	m.Set(1, 3)
	m.Set(1, 3)
	if got := m.Count(1); got != 1 {
		t.Errorf("Count(1) = %d, want 1", got)
	}
}

func TestNthElem(t *testing.T) {
	m := NewMatrix(3, 200)
	for _, e := range []int{3, 64, 65, 190} {
		m.Set(1, e)
	}
	m.Set(0, 0)
	m.Set(2, 199)
	tests := []struct {
		n      int
		want   int
		wantOK bool
	}{
		{0, 3, true},
		{1, 64, true},
		{2, 65, true},
		{3, 190, true},
		{4, 0, false},
		{-1, 0, false},
	}
	for _, tt := range tests {
		got, ok := m.NthElem(1, tt.n)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("NthElem(1, %d) = (%d, %v), want (%d, %v)", tt.n, got, ok, tt.want, tt.wantOK)
		}
	}
}

// TestFill: a filled row holds exactly [0, cols) for widths that end
// inside, at and just past a word boundary, and leaves the words past
// the last column clear.
func TestFill(t *testing.T) {
	for _, cols := range []int{0, 1, 63, 64, 65, 130} {
		m := NewMatrix(3, cols)
		m.Fill()
		for r := 0; r < 3; r++ {
			if got := m.Count(r); got != cols {
				t.Errorf("cols=%d: Count(%d) = %d after Fill", cols, r, got)
			}
			for c := 0; c < cols; c++ {
				if e, ok := m.NthElem(r, c); !ok || e != c {
					t.Fatalf("cols=%d: NthElem(%d, %d) = (%d, %v)", cols, r, c, e, ok)
				}
			}
			if _, ok := m.NthElem(r, cols); ok {
				t.Errorf("cols=%d: NthElem(%d, %d) found a bit past the last column", cols, r, cols)
			}
		}
	}
}

// model is a map-based reference implementation used by property tests.
type model map[int]bool

// applyOps runs ops on row 1 of a three-row n-column matrix, full when
// full is set, and on a map model of that row.
func applyOps(n int, full bool, ops []opRecord) (*Matrix, model) {
	m := NewMatrix(3, n)
	want := make(model)
	if full {
		m.Fill()
		for c := 0; c < n; c++ {
			want[c] = true
		}
	}
	for _, op := range ops {
		e := op.Elem % n
		if e < 0 {
			e = -e % n
		}
		switch op.Kind % 2 {
		case 0:
			m.Set(1, e)
			want[e] = true
		case 1:
			m.Unset(1, e)
			delete(want, e)
		}
	}
	return m, want
}

type opRecord struct {
	Kind int
	Elem int
}

// TestQuickAgainstModel checks that arbitrary Set/Unset sequences on an
// empty or a filled row — a color plate that colors are struck from —
// agree with a map model on Count and Get, that NthElem walks the
// elements a Get scan finds, in order, and that the neighbour rows
// keep their initial contents.
func TestQuickAgainstModel(t *testing.T) {
	for _, full := range []bool{false, true} {
		f := func(ops []opRecord) bool {
			const n = 150
			m, want := applyOps(n, full, ops)
			if m.Count(1) != len(want) {
				return false
			}
			k := 0
			for i := 0; i < n; i++ {
				if m.Get(1, i) != want[i] {
					return false
				}
				if want[i] {
					if e, ok := m.NthElem(1, k); !ok || e != i {
						return false
					}
					k++
				}
			}
			if _, ok := m.NthElem(1, k); ok {
				return false
			}
			untouched := 0
			if full {
				untouched = n
			}
			return m.Count(0) == untouched && m.Count(2) == untouched
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("full=%v: %v", full, err)
		}
	}
}

func TestNthElemMatchesElems(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := NewMatrix(3, 300)
		for i := 0; i < 40; i++ {
			m.Set(1, rnd.Intn(300))
		}
		var elems []int
		for i := 0; i < 300; i++ {
			if m.Get(1, i) {
				elems = append(elems, i)
			}
		}
		for i, e := range elems {
			got, ok := m.NthElem(1, i)
			if !ok || got != e {
				t.Fatalf("NthElem(1, %d) = (%d, %v), want (%d, true)", i, got, ok, e)
			}
		}
		if _, ok := m.NthElem(1, len(elems)); ok {
			t.Fatal("NthElem past end returned ok")
		}
	}
}

// rows returns a two-row matrix of the given width holding a in row 0
// and b in row 1.
func rows(cols int, a, b []int) *Matrix {
	m := NewMatrix(2, cols)
	for _, c := range a {
		m.Set(0, c)
	}
	for _, c := range b {
		m.Set(1, c)
	}
	return m
}

// TestIntersectionCount: AndCountSole counts the intersection of two
// rows capped at 2, and names its element only when the count is 1.
func TestIntersectionCount(t *testing.T) {
	tests := []struct {
		name      string
		a, b      []int
		wantCount int
		wantSole  int
	}{
		{name: "disjoint", a: []int{1, 2, 3}, b: []int{4, 5, 6}, wantCount: 0, wantSole: -1},
		{name: "identical", a: []int{1, 64, 120}, b: []int{1, 64, 120}, wantCount: 2, wantSole: -1},
		{name: "partial", a: []int{0, 63, 64}, b: []int{63, 64, 65}, wantCount: 2, wantSole: -1},
		{name: "empty", a: nil, b: []int{1}, wantCount: 0, wantSole: -1},
		{name: "sole in first word", a: []int{5, 63}, b: []int{63, 64}, wantCount: 1, wantSole: 63},
		{name: "sole in last word", a: []int{0, 127}, b: []int{1, 127}, wantCount: 1, wantSole: 127},
		{name: "two in one word", a: []int{7, 9}, b: []int{7, 9, 100}, wantCount: 2, wantSole: -1},
		{name: "two across words", a: []int{3, 100}, b: []int{3, 100}, wantCount: 2, wantSole: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := rows(128, tt.a, tt.b)
			if c, sole := AndCountSole(m.Row(0), m.Row(1)); c != tt.wantCount || sole != tt.wantSole {
				t.Errorf("AndCountSole = (%d, %d), want (%d, %d)", c, sole, tt.wantCount, tt.wantSole)
			}
			if c, sole := AndCountSole(m.Row(1), m.Row(0)); c != tt.wantCount || sole != tt.wantSole {
				t.Errorf("AndCountSole (reversed) = (%d, %d), want (%d, %d)", c, sole, tt.wantCount, tt.wantSole)
			}
		})
	}
}

// TestQuickIntersectionCount checks AndCountSole against a map model
// for random rows whose width ends inside, at, and just past a word
// boundary, and spans three words.
func TestQuickIntersectionCount(t *testing.T) {
	for _, cols := range []int{63, 64, 65, 130} {
		f := func(aIn, bIn []uint8) bool {
			var a, b []int
			am := make(model)
			for _, e := range aIn {
				a = append(a, int(e)%cols)
				am[int(e)%cols] = true
			}
			common, sole := 0, -1
			seen := make(model)
			for _, e := range bIn {
				c := int(e) % cols
				b = append(b, c)
				if am[c] && !seen[c] {
					seen[c] = true
					common++
					sole = c
				}
			}
			wantCount, wantSole := min(common, 2), -1
			if common == 1 {
				wantSole = sole
			}
			m := rows(cols, a, b)
			c, s := AndCountSole(m.Row(0), m.Row(1))
			return c == wantCount && s == wantSole
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("cols=%d: %v", cols, err)
		}
	}
}

// TestMatrixAgainstModel drives Set and Unset on rows that cross word
// boundaries and checks Get, Row, Stride, EqualWords and Clone against
// a map model after every step.
func TestMatrixAgainstModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, cols := range []int{63, 64, 65, 130} {
		const nrows = 3
		m := NewMatrix(nrows, cols)
		want := make([]model, nrows)
		for r := range want {
			want[r] = make(model)
		}
		if got := m.Stride(); got != (cols+63)/64 {
			t.Fatalf("cols=%d: Stride() = %d", cols, got)
		}
		for step := 0; step < 400; step++ {
			r, c := rnd.Intn(nrows), rnd.Intn(cols)
			if rnd.Intn(3) == 0 {
				m.Unset(r, c)
				delete(want[r], c)
			} else {
				m.Set(r, c)
				want[r][c] = true
			}
			for r := 0; r < nrows; r++ {
				row := m.Row(r)
				if len(row) != m.Stride() {
					t.Fatalf("cols=%d: len(Row(%d)) = %d, Stride() = %d", cols, r, len(row), m.Stride())
				}
				for c := 0; c < cols; c++ {
					inRow := row[c/64]&(1<<(uint(c)%64)) != 0
					if m.Get(r, c) != want[r][c] || inRow != want[r][c] {
						t.Fatalf("cols=%d step %d: bit (%d,%d) Get %v, Row %v, model %v",
							cols, step, r, c, m.Get(r, c), inRow, want[r][c])
					}
				}
			}
			for a := 0; a < nrows; a++ {
				for b := 0; b < nrows; b++ {
					same := len(want[a]) == len(want[b])
					for c := range want[a] {
						same = same && want[b][c]
					}
					if got := EqualWords(m.Row(a), m.Row(b)); got != same {
						t.Fatalf("cols=%d step %d: EqualWords(row %d, row %d) = %v, model %v", cols, step, a, b, got, same)
					}
				}
			}
		}
		c := m.Clone()
		if !c.EqualMatrix(m) {
			t.Fatalf("cols=%d: clone differs from its source", cols)
		}
		for r := 0; r < nrows; r++ {
			for col := 0; col < cols; col++ {
				if c.Get(r, col) != want[r][col] {
					t.Fatalf("cols=%d: clone bit (%d,%d) = %v, model %v", cols, r, col, c.Get(r, col), want[r][col])
				}
			}
		}
	}
}

// TestMatrixReset: Reset leaves an all-zero matrix of the new shape
// whether it grows, shrinks or keeps the words, and the zero Matrix
// may be Reset.
func TestMatrixReset(t *testing.T) {
	var m Matrix
	for _, shape := range [][2]int{{3, 130}, {2, 64}, {5, 200}, {0, 10}, {4, 1}, {-1, -1}} {
		m.Reset(shape[0], shape[1])
		rows, cols := max(shape[0], 0), max(shape[1], 0)
		if m.Stride() != (cols+63)/64 {
			t.Fatalf("Reset(%d, %d): Stride() = %d", shape[0], shape[1], m.Stride())
		}
		for r := 0; r < rows; r++ {
			if got := m.Count(r); got != 0 {
				t.Fatalf("Reset(%d, %d): row %d holds %d bits", shape[0], shape[1], r, got)
			}
		}
		if m.Row(rows) != nil {
			t.Fatalf("Reset(%d, %d): row %d is in range", shape[0], shape[1], rows)
		}
		m.Fill()
	}
}

// TestCloneIsDeep: a Matrix clone shares no words with its source.
func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2, 130)
	m.Set(0, 1)
	m.Set(1, 129)
	c := m.Clone()
	c.Set(0, 64)
	c.Unset(1, 129)
	if m.Get(0, 64) || !m.Get(1, 129) {
		t.Error("mutating the clone changed the original")
	}
	if !c.Get(0, 1) || !c.Get(0, 64) || c.Get(1, 129) {
		t.Error("clone lost or kept the wrong bits")
	}
	if c.EqualMatrix(m) {
		t.Error("EqualMatrix reports a mutated clone equal to its source")
	}
}

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(5, 130) // cols span multiple words
	pairs := [][2]int{{0, 0}, {0, 129}, {4, 63}, {4, 64}, {2, 65}}
	for _, p := range pairs {
		m.Set(p[0], p[1])
	}
	for _, p := range pairs {
		if !m.Get(p[0], p[1]) {
			t.Errorf("Get(%d,%d) = false after Set", p[0], p[1])
		}
	}
	if m.Get(1, 0) || m.Get(0, 1) || m.Get(3, 64) {
		t.Error("unset bits read true")
	}
	m.Unset(4, 64)
	if m.Get(4, 64) || !m.Get(4, 63) {
		t.Error("Unset(4,64) did not clear exactly that bit")
	}
}

func TestMatrixOutOfRange(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(-1, 0)
	m.Set(0, -1)
	m.Set(3, 0)
	m.Set(0, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if m.Get(r, c) {
				t.Fatalf("out-of-range Set leaked into (%d,%d)", r, c)
			}
		}
	}
	if m.Get(-1, 0) || m.Get(0, 3) {
		t.Error("out-of-range Get returned true")
	}
	m.Set(1, 1)
	m.Unset(1, 3) // must not panic or clear a neighbor
	m.Unset(-1, 1)
	if !m.Get(1, 1) {
		t.Error("out-of-range Unset cleared an in-range bit")
	}
	if m.Row(-1) != nil || m.Row(3) != nil {
		t.Error("out-of-range Row returned words")
	}
	if e := NewMatrix(-1, -1); e.Stride() != 0 || e.Row(0) != nil {
		t.Error("negative dims should yield an empty matrix")
	}
}
