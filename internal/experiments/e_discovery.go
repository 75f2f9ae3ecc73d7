package experiments

import (
	"context"
	"fmt"

	"crn"
	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/graph"
	"crn/internal/rng"
	"crn/internal/stats"
)

// E2SeekVsC sweeps the per-node channel count c at fixed n, k, Δ and
// measures slots to full neighbor discovery for CSEEK and both
// baselines. Theorem 4 predicts CSEEK ≈ c²/k (log-log slope ≈ 2 in c)
// while the naive baseline pays an extra factor Δ.
func E2SeekVsC(scale Scale, seed uint64) (*Table, error) {
	cs := []int{4, 6, 8, 12, 16}
	trials := 3
	n := 24
	if scale == Quick {
		cs = []int{4, 6, 8}
		trials = 1
		n = 16
	}
	const k = 2

	t := &Table{
		ID:     "E2",
		Title:  "Discovery time vs c",
		Claim:  "Theorem 4: CSEEK in O~(c²/k + (kmax/k)Δ); naive in O~((c²/k)·Δ)",
		Header: []string{"c", "CSEEK med", "naive med", "uniform med", "naive/CSEEK"},
	}

	g, err := graph.RandomRegularish(n, 4, rng.New(seed))
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, c := range cs {
		a, err := chanassign.SharedCore(n, c, k, rng.New(seed+uint64(c)))
		if err != nil {
			return nil, err
		}
		scn, err := facadeScenario(g, a)
		if err != nil {
			return nil, err
		}
		cseek, _, err := medianTimeToDiscovery(scn, crn.Discovery(crn.CSeek), trials, seed+1)
		if err != nil {
			return nil, err
		}
		naive, _, err := medianTimeToDiscovery(scn, crn.Discovery(crn.Naive), trials, seed+2)
		if err != nil {
			return nil, err
		}
		uniform, _, err := medianTimeToDiscovery(scn, crn.Discovery(crn.Uniform), trials, seed+3)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(int64(c)), f1(cseek), f1(naive), f1(uniform), f2(naive/cseek))
		xs = append(xs, float64(c))
		ys = append(ys, cseek)
	}
	if fit, err := stats.LogLogSlope(xs, ys); err == nil {
		t.AddNote("paper: CSEEK time ~ c²/k ⇒ log-log slope vs c ≈ 2; measured slope = %.2f (R²=%.2f)", fit.Slope, fit.R2)
	}
	t.AddNote("at this small Δ the naive baseline's absolute times are lower: CSEEK's COUNT machinery costs a polylog factor that only pays off once Δ exceeds it — E3 shows the gap closing as Δ grows, and TestScheduleShape pins the crossover ordering")
	return t, nil
}

// E3SeekVsDelta sweeps the maximum degree Δ on stars at fixed c, k.
// Theorem 4 predicts CSEEK grows additively in Δ while the naive
// baseline pays (c²/k)·Δ, so naive/CSEEK must grow with Δ.
func E3SeekVsDelta(scale Scale, seed uint64) (*Table, error) {
	deltas := []int{16, 64, 256}
	trials := 3
	if scale == Quick {
		deltas = []int{16, 64}
		trials = 1
	}
	const c, k = 4, 1

	t := &Table{
		ID:     "E3",
		Title:  "Discovery time vs Δ (stars)",
		Claim:  "Theorem 4: CSEEK additive (kmax/k)·Δ term; naive multiplicative Δ",
		Header: []string{"Δ", "CSEEK med", "naive med", "naive/CSEEK"},
	}

	var prevRatio float64
	increasing := true
	for _, delta := range deltas {
		g := graph.Star(delta + 1)
		a, err := chanassign.SharedCore(delta+1, c, k, rng.New(seed+uint64(delta)))
		if err != nil {
			return nil, err
		}
		scn, err := facadeScenario(g, a)
		if err != nil {
			return nil, err
		}
		cseek, _, err := medianTimeToDiscovery(scn, crn.Discovery(crn.CSeek), trials, seed+4)
		if err != nil {
			return nil, err
		}
		naive, _, err := medianTimeToDiscovery(scn, crn.Discovery(crn.Naive), trials, seed+5)
		if err != nil {
			return nil, err
		}
		ratio := naive / cseek
		t.AddRow(itoa(int64(delta)), f1(cseek), f1(naive), f2(ratio))
		if prevRatio > 0 && ratio < prevRatio {
			increasing = false
		}
		prevRatio = ratio
	}
	t.AddNote("paper: the naive/CSEEK gap widens with Δ; measured monotone growth: %v", increasing)
	return t, nil
}

// E4Heterogeneity sweeps kmax/k at fixed c, k, Δ and shows Theorem 4's
// (kmax/k)·Δ part-two term. The workload is a star whose leaves all
// share kmax channels with the center, plus one weak-link appendage
// pair sharing exactly k = 1 channel — the appendage pins the global
// minimum overlap, so growing kmax stretches exactly the part-two
// schedule.
func E4Heterogeneity(scale Scale, seed uint64) (*Table, error) {
	kmaxs := []int{1, 2, 4}
	trials := 3
	leaves := 33
	if scale == Quick {
		kmaxs = []int{1, 4}
		trials = 1
		leaves = 17
	}
	const c, k = 8, 1

	t := &Table{
		ID:     "E4",
		Title:  "Discovery time vs kmax/k",
		Claim:  "Theorem 4: part two of the schedule is Θ((kmax/k)·Δ·lg²n)",
		Header: []string{"kmax/k", "part-1 slots", "part-2 slots", "CSEEK med", "complete"},
	}

	for _, kmax := range kmaxs {
		in, err := starWithWeakLink(leaves, c, kmax, seed+uint64(kmax))
		if err != nil {
			return nil, err
		}
		scn, err := facadeScenario(in.g, in.a)
		if err != nil {
			return nil, err
		}
		med, incomplete, err := medianTimeToDiscovery(scn, crn.Discovery(crn.CSeek), trials, seed+6)
		if err != nil {
			return nil, err
		}
		probe, err := core.NewCSeek(in.p, core.Env{ID: 0, C: c, Rand: rng.New(1)})
		if err != nil {
			return nil, err
		}
		t.AddRow(f1(float64(kmax)/float64(k)), itoa(probe.PartOneSlots()),
			itoa(probe.PartTwoSlots()), f1(med),
			fmt.Sprintf("%d/%d", trials-incomplete, trials))
	}
	t.AddNote("paper: the part-2 column grows linearly in kmax/k while part 1 is fixed by c²/k; measured discovery stays complete within the stretched schedule")
	t.AddNote("the measured median *drops* as kmax grows because denser cores give more meeting opportunities on this workload; the (kmax/k)·Δ term is the worst-case budget the algorithm must reserve, not a measured slowdown")
	return t, nil
}

// starWithWeakLink builds the E4 workload: node 0 is the center of a
// star over `leaves` leaves, every star edge sharing exactly kmax
// channels (a common core); one extra node attaches to leaf 1 sharing
// exactly one private channel, pinning the network-wide k at 1.
func starWithWeakLink(leaves, c, kmax int, seed uint64) (*instance, error) {
	if kmax+1 > c {
		return nil, fmt.Errorf("experiments: kmax+1 = %d exceeds c = %d", kmax+1, c)
	}
	n := leaves + 2 // center + leaves + appendage
	edges := make([][2]int, 0, leaves+1)
	for v := 1; v <= leaves; v++ {
		edges = append(edges, [2]int{0, v})
	}
	appendage := n - 1
	edges = append(edges, [2]int{1, appendage})
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}

	// Channel sets: global channels [0,kmax) are the star core; channel
	// kmax is the weak link; the rest are per-node private fillers.
	next := kmax + 1
	private := func(count int) []int {
		out := make([]int, count)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	universe := kmax + 1 + n*c
	sets := make([][]int, n)
	core0 := make([]int, kmax)
	for i := range core0 {
		core0[i] = i
	}
	for u := 0; u < n; u++ {
		switch {
		case u == appendage:
			sets[u] = append([]int{kmax}, private(c-1)...)
		case u == 1:
			sets[u] = append(append(append([]int{}, core0...), kmax), private(c-kmax-1)...)
		default:
			sets[u] = append(append([]int{}, core0...), private(c-kmax)...)
		}
	}
	a, err := chanassign.FromSets(universe, sets, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return newInstance(g, a)
}

// E5KSeek reproduces Theorem 6: CKSEEK solves k̂-neighbor-discovery
// strictly faster as k̂ grows, while still finding every good neighbor.
// The whole measurement goes through the KDiscovery primitive, whose
// Result already counts the good (≥ k̂ shared channels) pairs.
func E5KSeek(scale Scale, seed uint64) (*Table, error) {
	khats := []int{2, 4, 8}
	n := 20
	if scale == Quick {
		khats = []int{2, 8}
		n = 14
	}
	const c, k, kmax = 12, 2, 8

	t := &Table{
		ID:     "E5",
		Title:  "CKSEEK as a k̂ filter",
		Claim:  "Theorem 6: O~((c²/k̂) + (kmax/k̂)Δ_k̂ + Δ); k̂ > k strictly faster",
		Header: []string{"k̂", "schedule", "good pairs", "found", "time-to-good"},
	}

	g, err := graph.GNP(n, 0.3, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	a, err := chanassign.Heterogeneous(g, c, k, kmax, 0.5, rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	scn, err := facadeScenario(g, a)
	if err != nil {
		return nil, err
	}

	for _, khat := range khats {
		res, err := crn.KDiscovery(khat).Run(context.Background(), scn, seed+7)
		if err != nil {
			return nil, err
		}
		timeStr := "censored"
		if res.CompletedAtSlot >= 0 {
			timeStr = itoa(res.CompletedAtSlot)
		}
		t.AddRow(itoa(int64(khat)), itoa(res.ScheduleSlots),
			itoa(int64(res.Discovery.PairsTotal)),
			itoa(int64(res.Discovery.PairsDiscovered)), timeStr)
	}
	t.AddNote("paper: schedule strictly decreases in k̂ and all good neighbors are found")
	return t, nil
}

// E12PriorityBias reproduces the Section 7 observation: in CSEEK's part
// two, neighbors overlapping on many channels are heard earlier than
// sparse-overlap neighbors, because the density-weighted listener
// favors the channels where they live. The first-heard slots come from
// the Result envelope's FirstHeard detail.
func E12PriorityBias(scale Scale, seed uint64) (*Table, error) {
	trials := 3
	n := 20
	if scale == Quick {
		trials = 1
		n = 14
	}
	const c, k, kmax = 12, 2, 8

	t := &Table{
		ID:     "E12",
		Title:  "Part-two priority bias",
		Claim:  "Section 7: CSEEK hears dense-overlap neighbors earlier",
		Header: []string{"pair class", "pairs", "first-heard med"},
	}

	g, err := graph.GNP(n, 0.3, rng.New(seed+3))
	if err != nil {
		return nil, err
	}
	a, err := chanassign.Heterogeneous(g, c, k, kmax, 0.5, rng.New(seed+4))
	if err != nil {
		return nil, err
	}
	scn, err := facadeScenario(g, a)
	if err != nil {
		return nil, err
	}

	prim := crn.Discovery(crn.CSeek)
	var sparse, dense []float64
	for trial := 0; trial < trials; trial++ {
		res, err := prim.Run(context.Background(), scn, seed+uint64(100+trial))
		if err != nil {
			return nil, err
		}
		d := res.Discovery
		for u := 0; u < n; u++ {
			for i, v := range d.Neighbors[u] {
				slot := d.FirstHeard[u][i]
				if slot < 0 {
					continue
				}
				if a.SharedCount(u, v) >= kmax {
					dense = append(dense, float64(slot))
				} else {
					sparse = append(sparse, float64(slot))
				}
			}
		}
	}
	sd := stats.Summarize(dense)
	ss := stats.Summarize(sparse)
	t.AddRow(fmt.Sprintf("k_uv = %d (dense)", kmax), itoa(int64(sd.N)), f1(sd.Median))
	t.AddRow(fmt.Sprintf("k_uv = %d (sparse)", k), itoa(int64(ss.N)), f1(ss.Median))
	t.AddNote("paper: dense pairs heard earlier; measured: dense median %.0f vs sparse %.0f", sd.Median, ss.Median)
	return t, nil
}
