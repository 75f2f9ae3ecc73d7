package chanassign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"crn/internal/graph"
	"crn/internal/rng"
)

func TestSharedCoreExactOverlap(t *testing.T) {
	r := rng.New(1)
	const n, c, k = 10, 8, 3
	a, err := SharedCore(n, c, k, r)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	if err := a.Validate(g, k, k); err != nil {
		t.Fatal(err)
	}
	kMin, kMax := a.OverlapRange(g)
	if kMin != k || kMax != k {
		t.Errorf("OverlapRange = (%d,%d), want (%d,%d)", kMin, kMax, k, k)
	}
}

func TestSharedCoreParamErrors(t *testing.T) {
	r := rng.New(1)
	tests := []struct {
		name    string
		n, c, k int
	}{
		{name: "zero nodes", n: 0, c: 4, k: 2},
		{name: "zero channels", n: 4, c: 0, k: 0},
		{name: "k exceeds c", n: 4, c: 4, k: 5},
		{name: "negative k", n: 4, c: 4, k: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SharedCore(tt.n, tt.c, tt.k, r); err == nil {
				t.Errorf("SharedCore(%d,%d,%d) succeeded, want error", tt.n, tt.c, tt.k)
			}
		})
	}
}

func TestSharedPool(t *testing.T) {
	r := rng.New(2)
	const n, c, k, pool = 12, 10, 2, 40
	a, err := SharedPool(n, c, k, pool, r)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	// Overlap is at least k and at most c by construction.
	if err := a.Validate(g, k, c); err != nil {
		t.Fatal(err)
	}
	kMin, _ := a.OverlapRange(g)
	if kMin < k {
		t.Errorf("min overlap %d < k = %d", kMin, k)
	}
	if _, err := SharedPool(4, 8, 2, 3, r); err == nil {
		t.Error("pool smaller than c-k accepted")
	}
}

func TestIdentical(t *testing.T) {
	r := rng.New(3)
	a, err := Identical(5, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(5)
	if err := a.Validate(g, 6, 6); err != nil {
		t.Fatal(err)
	}
	if a.Universe != 6 {
		t.Errorf("Universe = %d, want 6", a.Universe)
	}
}

func TestHeterogeneous(t *testing.T) {
	r := rng.New(4)
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	const c, k, kmax = 12, 2, 6
	a, err := Heterogeneous(g, c, k, kmax, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g, k, kmax); err != nil {
		t.Fatal(err)
	}
	// Every edge must share exactly k or exactly kmax.
	heavyCount := 0
	for _, e := range g.Edges() {
		s := a.SharedCount(int(e.U), int(e.V))
		switch s {
		case k:
		case kmax:
			heavyCount++
		default:
			t.Errorf("edge (%d,%d) shares %d channels, want %d or %d", e.U, e.V, s, k, kmax)
		}
	}
	if heavyCount == 0 {
		t.Error("no heavy edges created at heavyFrac=0.5")
	}
}

func TestHeterogeneousDegenerate(t *testing.T) {
	r := rng.New(5)
	g := graph.Path(6)
	// kmax == k degenerates to uniform overlap.
	a, err := Heterogeneous(g, 5, 2, 2, 0.7, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousErrors(t *testing.T) {
	r := rng.New(6)
	g := graph.Path(4)
	if _, err := Heterogeneous(g, 5, 3, 2, 0.5, r); err == nil {
		t.Error("kmax < k accepted")
	}
	// c-k = 1 cannot host kmax-k = 3 extra channels.
	if _, err := Heterogeneous(g, 5, 4, 7, 0.5, r); err == nil {
		t.Error("infeasible extra-channel budget accepted")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	r := rng.New(7)
	a, err := SharedCore(6, 9, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.N(); u++ {
		seen := make(map[int32]bool, a.C)
		for l := 0; l < a.C; l++ {
			g := a.Global(u, l)
			if seen[g] {
				t.Fatalf("node %d: global channel %d appears under two labels", u, g)
			}
			seen[g] = true
			if back := a.Local(u, g); int(back) != l {
				t.Fatalf("node %d: label %d -> global %d -> label %d", u, l, g, back)
			}
		}
	}
}

func TestLocalUnknownChannel(t *testing.T) {
	r := rng.New(8)
	const k = 1
	a, err := SharedCore(3, 4, k, r)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 shares only the core (global channels below k) with node
	// 1, so it cannot access any of node 1's other channels.
	private := 0
	for l := 0; l < a.C; l++ {
		g := a.Global(1, l)
		if g < k {
			continue
		}
		private++
		if got := a.Local(0, g); got != -1 {
			t.Errorf("Local(0, %d) = %d, want -1", g, got)
		}
	}
	if private != a.C-k {
		t.Errorf("node 1 has %d private channels, want %d", private, a.C-k)
	}
	// Channels past either end of node 0's row are unknown as well.
	for _, g := range []int32{-1, int32(a.Universe)} {
		if got := a.Local(0, g); got != -1 {
			t.Errorf("Local(0, %d) = %d, want -1", g, got)
		}
	}
}

func TestSharedChannels(t *testing.T) {
	r := rng.New(9)
	a, err := SharedCore(4, 6, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SharedCount(0, 1); got != 3 {
		t.Fatalf("SharedCount(0,1) = %d, want 3", got)
	}
	// SharedCount agrees with the channels both nodes can name.
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			both := 0
			for g := int32(0); g < int32(a.Universe); g++ {
				if a.Local(u, g) >= 0 && a.Local(v, g) >= 0 {
					both++
				}
			}
			if got := a.SharedCount(u, v); got != both {
				t.Errorf("SharedCount(%d,%d) = %d, %d channels have a label at both", u, v, got, both)
			}
		}
	}
}

func TestFromSetsErrors(t *testing.T) {
	r := rng.New(17)
	tests := []struct {
		name     string
		universe int
		sets     [][]int
	}{
		{name: "no nodes", universe: 4},
		{name: "empty universe", universe: 0, sets: [][]int{{0}}},
		{name: "no channels", universe: 4, sets: [][]int{{}}},
		{name: "unequal sets", universe: 4, sets: [][]int{{0, 1}, {2}}},
		{name: "out of range", universe: 4, sets: [][]int{{0, 1}, {2, 4}}},
		{name: "negative", universe: 4, sets: [][]int{{0, 1}, {-1, 2}}},
		// The repeat is not adjacent until the set is sorted.
		{name: "repeated channel", universe: 4, sets: [][]int{{0, 1, 2}, {3, 1, 3}}},
	}
	for _, tt := range tests {
		if _, err := FromSets(tt.universe, tt.sets, r); err == nil {
			t.Errorf("%s: FromSets(%d, %v) succeeded, want error", tt.name, tt.universe, tt.sets)
		}
	}
}

func TestMatching(t *testing.T) {
	r := rng.New(10)
	pairs := [][2]int{{0, 3}, {2, 1}}
	a, err := Matching(4, pairs, r)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 2 {
		t.Fatalf("N = %d, want 2", a.N())
	}
	if got := a.SharedCount(0, 1); got != 2 {
		t.Errorf("SharedCount = %d, want 2", got)
	}
	// Verify the matching is realized: node 0's local 0 == node 1's local 3.
	if a.Global(0, 0) != a.Global(1, 3) {
		t.Error("pair (0,3) not realized as a shared channel")
	}
	if a.Global(0, 2) != a.Global(1, 1) {
		t.Error("pair (2,1) not realized as a shared channel")
	}
	// Unmatched labels must not collide.
	if a.Global(0, 1) == a.Global(1, 0) {
		t.Error("unmatched labels share a global channel")
	}
	g := graph.Path(2)
	if err := a.Validate(g, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingErrors(t *testing.T) {
	r := rng.New(11)
	if _, err := Matching(0, nil, r); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := Matching(2, [][2]int{{0, 0}, {1, 1}, {0, 1}}, r); err == nil {
		t.Error("too many pairs accepted")
	}
	if _, err := Matching(3, [][2]int{{0, 5}}, r); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := Matching(3, [][2]int{{0, 0}, {0, 1}}, r); err == nil {
		t.Error("repeated endpoint accepted")
	}
}

func TestMatchingEmpty(t *testing.T) {
	r := rng.New(12)
	a, err := Matching(3, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SharedCount(0, 1); got != 0 {
		t.Errorf("SharedCount = %d, want 0", got)
	}
}

// TestQuickHeterogeneousValid fuzzes parameters and checks the overlap
// guarantee whenever construction succeeds.
func TestQuickHeterogeneousValid(t *testing.T) {
	f := func(seed uint64, kRaw, extraRaw uint8) bool {
		r := rng.New(seed)
		k := int(kRaw%4) + 1
		extra := int(extraRaw % 4)
		kmax := k + extra
		c := kmax + int(seed%5) + 1
		g, err := graph.GNP(10, 0.4, r)
		if err != nil {
			return true
		}
		a, err := Heterogeneous(g, c, k, kmax, 0.5, r)
		if err != nil {
			return true
		}
		return a.Validate(g, k, kmax) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSharedPoolOverlap fuzzes pool assignments and verifies the
// min-overlap guarantee.
func TestQuickSharedPoolOverlap(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		r := rng.New(seed)
		k := int(kRaw%5) + 1
		c := k + 4
		a, err := SharedPool(8, c, k, 30, r)
		if err != nil {
			return false
		}
		g := graph.Complete(8)
		kMin, _ := a.OverlapRange(g)
		return kMin >= k && a.Validate(g, k, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsMismatch(t *testing.T) {
	r := rng.New(13)
	a, err := SharedCore(4, 5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong node count.
	if err := a.Validate(graph.Star(5), 2, 2); err == nil {
		t.Error("node-count mismatch not detected")
	}
	// Too-strict overlap bounds.
	if err := a.Validate(graph.Complete(4), 3, 5); err == nil {
		t.Error("overlap below k not detected")
	}
	if err := a.Validate(graph.Complete(4), 1, 1); err == nil {
		t.Error("overlap above kmax not detected")
	}
}

// labelDigest is one sha256 over every Global(u, l) in node and label
// order, followed by every Local(u, g) for g in [0, Universe).
func labelDigest(a *Assignment) string {
	h := sha256.New()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for u := 0; u < a.N(); u++ {
		for l := 0; l < a.C; l++ {
			put(a.Global(u, l))
		}
	}
	for u := 0; u < a.N(); u++ {
		for g := 0; g < a.Universe; g++ {
			put(a.Local(u, int32(g)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAssignmentLabelsPinned pins every constructor's labeling at
// fixed seeds: the global channel behind each local label and the
// local label (or -1) of each global channel. The digests were
// recorded on the universe-wide table representation; any change to
// the order in which a constructor lists a node's channels or draws
// its label permutation moves them, and with them every run.
// The Local sweep runs over [0, Universe), so each digest also pins
// the constructor's universe.
func TestAssignmentLabelsPinned(t *testing.T) {
	regular, err := graph.RandomRegularish(40, 5, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// Explicit sets listed out of order, so FromSets must sort them.
	setsRand := rng.New(22)
	const fromUniverse, fromC = 30, 7
	fromSets := make([][]int, 12)
	for u := range fromSets {
		fromSets[u] = setsRand.SampleK(fromUniverse, fromC)
		for i := len(fromSets[u]) - 1; i > 0; i-- {
			j := setsRand.Intn(i + 1)
			fromSets[u][i], fromSets[u][j] = fromSets[u][j], fromSets[u][i]
		}
	}
	// dense marks the constructors whose universe is exactly the ids
	// they deal: every id in [0, Universe) is in some node's row.
	tests := []struct {
		name  string
		build func() (*Assignment, error)
		want  string
		dense bool
	}{
		{
			"SharedCore",
			func() (*Assignment, error) { return SharedCore(50, 8, 2, rng.New(11)) },
			"78f30a385feeadca8cd01e53851ab24859c98db2d89dc8eba5ccff5ef6ac3d2c",
			true,
		},
		{
			"SharedPool",
			func() (*Assignment, error) { return SharedPool(30, 9, 3, 25, rng.New(12)) },
			"db700587448d70ff7fbe288e9471787ebf287217aa41243b0d4146b5b568de44",
			false,
		},
		{
			"Heterogeneous",
			func() (*Assignment, error) { return Heterogeneous(regular, 10, 2, 4, 0.5, rng.New(13)) },
			"0a68cd7b9c60edeaf7ceb9aad01e1ad8ea13184c4aba4a1631c8d31f2b5d0de1",
			true,
		},
		{
			"Identical",
			func() (*Assignment, error) { return Identical(9, 6, rng.New(14)) },
			"702a860f49d59e8477e2e225c5a08d63e66beeae66dee75e34af2f495983842c",
			true,
		},
		{
			"FromSets",
			func() (*Assignment, error) { return FromSets(fromUniverse, fromSets, rng.New(15)) },
			"3a0b6a99440b3aa228c8c4b45b97463b1153a76708fb2de16c9ad6b0e0b51321",
			false,
		},
		{
			"Matching",
			func() (*Assignment, error) { return Matching(6, [][2]int{{0, 3}, {2, 1}, {4, 4}}, rng.New(16)) },
			"e000b3280a17730e1c29e1f8fcf463dab0fa3ee1cd13515b8d5bfb21461dc868",
			false,
		},
	}
	for _, tt := range tests {
		a, err := tt.build()
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got := labelDigest(a); got != tt.want {
			t.Errorf("%s: label digest %s, want %s", tt.name, got, tt.want)
		}
		if !tt.dense {
			continue
		}
		inUse := make([]bool, a.Universe)
		for _, g := range a.chans {
			inUse[g] = true
		}
		unused := 0
		for _, used := range inUse {
			if !used {
				unused++
			}
		}
		if unused > 0 {
			t.Errorf("%s: %d of the %d ids in [0, Universe) are in no node's row", tt.name, unused, a.Universe)
		}
	}
}
