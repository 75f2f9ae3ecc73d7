package lowerbound

import (
	"sort"
	"testing"

	"crn/internal/core"
	"crn/internal/radio"
	"crn/internal/rng"
)

func TestNewGameValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewGame(0, 1, r); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := NewGame(4, 0, r); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewGame(4, 5, r); err == nil {
		t.Error("k>c accepted")
	}
}

func TestGameMatchingIsValid(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		g, err := NewGame(8, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.matching) != 3 {
			t.Fatalf("matching size %d, want 3", len(g.matching))
		}
		seenB := make(map[int]bool)
		for a, b := range g.matching {
			if a < 0 || a >= 8 || b < 0 || b >= 8 {
				t.Fatalf("matching pair (%d,%d) out of range", a, b)
			}
			if seenB[b] {
				t.Fatal("b-side vertex matched twice")
			}
			seenB[b] = true
		}
	}
}

func TestGameProposeMechanics(t *testing.T) {
	r := rng.New(3)
	g, err := NewGame(4, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustively find the matching; every miss increments rounds.
	wins := 0
	for a := 0; a < 4 && wins == 0; a++ {
		for b := 0; b < 4; b++ {
			if g.Propose(a, b) {
				wins++
				break
			}
		}
	}
	if wins != 1 {
		t.Fatal("exhaustive play never won")
	}
	if !g.Won() {
		t.Error("Won() = false after winning proposal")
	}
	if g.Rounds() < 1 || g.Rounds() > 16 {
		t.Errorf("Rounds() = %d after exhaustive play", g.Rounds())
	}
	// Proposals after a win are free.
	before := g.Rounds()
	if !g.Propose(0, 0) {
		t.Error("post-win proposal returned false")
	}
	if g.Rounds() != before {
		t.Error("post-win proposal consumed a round")
	}
}

func TestGameOutOfRangeProposalCountsAsMiss(t *testing.T) {
	r := rng.New(4)
	g, err := NewGame(4, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Propose(-1, 99) {
		t.Error("out-of-range proposal won")
	}
	if g.Rounds() != 1 {
		t.Errorf("Rounds() = %d, want 1", g.Rounds())
	}
}

func TestCompleteGame(t *testing.T) {
	r := rng.New(5)
	g, err := NewCompleteGame(6, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 6 {
		t.Errorf("K() = %d, want 6", g.K())
	}
	if len(g.matching) != 6 {
		t.Errorf("perfect matching has %d pairs", len(g.matching))
	}
}

func median(xs []int) int {
	sort.Ints(xs)
	return xs[len(xs)/2]
}

// TestLemma10FloorUniformPlayer: the uniform player's median hitting
// time must respect the Lemma 10 floor c²/(8k) for k ≤ c/2 (and lands
// near c²·ln2/k, well above it).
func TestLemma10FloorUniformPlayer(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	master := rng.New(6)
	for _, tc := range []struct{ c, k int }{{8, 1}, {8, 4}, {16, 2}, {16, 8}, {32, 4}} {
		const trials = 60
		rounds := make([]int, 0, trials)
		for i := 0; i < trials; i++ {
			r := master.Split(uint64(tc.c*1000 + tc.k*100 + i))
			g, err := NewGame(tc.c, tc.k, r)
			if err != nil {
				t.Fatal(err)
			}
			p := NewUniformPlayer(tc.c, r)
			n, won := Play(g, p, 1<<22)
			if !won {
				t.Fatalf("uniform player never won at c=%d k=%d", tc.c, tc.k)
			}
			rounds = append(rounds, n)
		}
		floor := tc.c * tc.c / (8 * tc.k)
		if med := median(rounds); med < floor {
			t.Errorf("c=%d k=%d: median %d below Lemma 10 floor %d", tc.c, tc.k, med, floor)
		}
	}
}

// TestLemma10FloorSweepPlayer: even the near-optimal sweep player
// respects the floor.
func TestLemma10FloorSweepPlayer(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	master := rng.New(7)
	for _, tc := range []struct{ c, k int }{{8, 2}, {16, 4}, {32, 8}} {
		const trials = 80
		rounds := make([]int, 0, trials)
		for i := 0; i < trials; i++ {
			r := master.Split(uint64(tc.c*1000 + tc.k*100 + i))
			g, err := NewGame(tc.c, tc.k, r)
			if err != nil {
				t.Fatal(err)
			}
			p := NewSweepPlayer(tc.c, r)
			n, won := Play(g, p, tc.c*tc.c+1)
			if !won {
				t.Fatalf("sweep player never won at c=%d k=%d", tc.c, tc.k)
			}
			rounds = append(rounds, n)
		}
		floor := tc.c * tc.c / (8 * tc.k)
		med := median(rounds)
		if med < floor {
			t.Errorf("c=%d k=%d: median %d below Lemma 10 floor %d", tc.c, tc.k, med, floor)
		}
		// The sweep player is near-optimal: its median should also be
		// within a small factor of c²/(k+1).
		expect := tc.c * tc.c / (tc.k + 1)
		if med > 3*expect {
			t.Errorf("c=%d k=%d: median %d far above optimal-ish %d", tc.c, tc.k, med, expect)
		}
	}
}

// TestLemma12FloorCompleteGame: the c-complete game needs ≥ c/3 rounds.
func TestLemma12FloorCompleteGame(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	master := rng.New(8)
	for _, c := range []int{6, 12, 24, 48} {
		const trials = 80
		rounds := make([]int, 0, trials)
		for i := 0; i < trials; i++ {
			r := master.Split(uint64(c*1000 + i))
			g, err := NewCompleteGame(c, r)
			if err != nil {
				t.Fatal(err)
			}
			p := NewSweepPlayer(c, r)
			n, won := Play(g, p, c*c+1)
			if !won {
				t.Fatalf("sweep player never won complete game at c=%d", c)
			}
			rounds = append(rounds, n)
		}
		if med := median(rounds); med < c/3 {
			t.Errorf("c=%d: median %d below Lemma 12 floor %d", c, med, c/3)
		}
	}
}

// TestReductionPlayerWinsViaNaiveSeek runs the Lemma 11 reduction with
// the naive discovery protocol as the wrapped algorithm.
func TestReductionPlayerWinsViaNaiveSeek(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const c, k = 6, 2
	master := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		r := master.Split(uint64(trial))
		g, err := NewGame(c, k, r)
		if err != nil {
			t.Fatal(err)
		}
		p := twoNodeParams()
		mk := func(restart int) (radio.Protocol, radio.Protocol) {
			ru := r.Split(uint64(restart)*2 + 1)
			rv := r.Split(uint64(restart)*2 + 2)
			u, err := core.NewNaiveSeek(p, core.Env{ID: 0, C: c, Rand: ru})
			if err != nil {
				t.Fatal(err)
			}
			v, err := core.NewNaiveSeek(p, core.Env{ID: 1, C: c, Rand: rv})
			if err != nil {
				t.Fatal(err)
			}
			return u, v
		}
		player, err := NewReductionPlayer(mk)
		if err != nil {
			t.Fatal(err)
		}
		n, won := Play(g, player, 1<<22)
		if !won {
			t.Fatalf("trial %d: reduction player never won", trial)
		}
		if n < 1 {
			t.Errorf("trial %d: %d rounds", trial, n)
		}
	}
}

// twoNodeParams returns two-node model parameters for the reduction tests.
func twoNodeParams() core.Params {
	return core.Params{N: 2, C: 6, K: 2, KMax: 2, Delta: 1}
}

// TestReductionPlayerFaithfulness: the proposals a reduction player
// makes must be exactly the channel pairs the wrapped protocols tune
// to, and silence must be delivered on every miss. We verify this with
// instrumented protocols.
type probeProto struct {
	channels []int
	pos      int
	observes int
}

func (p *probeProto) Act(_ int64) radio.Action {
	ch := p.channels[p.pos%len(p.channels)]
	p.pos++
	return radio.Action{Kind: radio.Listen, Ch: ch}
}
func (p *probeProto) Observe(_ int64, d radio.Delivery) {
	if d.From >= 0 {
		panic("reduction must deliver silence")
	}
	p.observes++
}
func (p *probeProto) Done() bool { return false }

func TestReductionPlayerFaithfulness(t *testing.T) {
	u := &probeProto{channels: []int{0, 1, 2}}
	v := &probeProto{channels: []int{3, 4, 5}}
	player, err := NewReductionPlayer(func(int) (radio.Protocol, radio.Protocol) { return u, v })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		a, b := player.NextProposal()
		if a != u.channels[i%3] || b != v.channels[i%3] {
			t.Fatalf("round %d proposal (%d,%d), want (%d,%d)", i, a, b, u.channels[i%3], v.channels[i%3])
		}
		player.ObserveMiss()
	}
	if u.observes != 6 || v.observes != 6 {
		t.Errorf("observes = %d/%d, want 6/6", u.observes, v.observes)
	}
	if player.Restarts() != 0 {
		t.Errorf("Restarts() = %d, want 0", player.Restarts())
	}
}

func TestReductionPlayerRestarts(t *testing.T) {
	calls := 0
	mk := func(restart int) (radio.Protocol, radio.Protocol) {
		calls++
		// Protocols that finish after one slot.
		return &finiteProto{budget: 1}, &finiteProto{budget: 1}
	}
	player, err := NewReductionPlayer(mk)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		player.NextProposal()
		player.ObserveMiss()
	}
	if player.Restarts() < 3 {
		t.Errorf("Restarts() = %d, want >= 3 for one-slot protocols", player.Restarts())
	}
	if calls != player.Restarts()+1 {
		t.Errorf("factory called %d times for %d restarts", calls, player.Restarts())
	}
}

func TestNewReductionPlayerNilFactory(t *testing.T) {
	if _, err := NewReductionPlayer(nil); err == nil {
		t.Error("nil factory accepted")
	}
}

type finiteProto struct {
	budget int
	used   int
}

func (p *finiteProto) Act(_ int64) radio.Action {
	return radio.Action{Kind: radio.Listen, Ch: 0}
}
func (p *finiteProto) Observe(_ int64, _ radio.Delivery) { p.used++ }
func (p *finiteProto) Done() bool                        { return p.used >= p.budget }
