package experiments

import (
	"context"
	"fmt"

	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// E16Amortization measures the break-even point between CGCAST and
// flooding over repeated broadcasts: CGCAST pays setup once and then
// O~(D·Δ) per message, flooding pays a fresh O~((c²/k)·D) rendezvous
// per message. The crossover message count is setup/(flood−dissem).
func E16Amortization(scale Scale, seed uint64) (*Table, error) {
	length := 8
	floodTrials := 3
	if scale == Quick {
		length = 4
		floodTrials = 1
	}
	const clusterSize, c, k = 4, 16, 1

	t := &Table{
		ID:     "E16",
		Title:  "Setup amortization over repeated broadcasts",
		Claim:  "Theorem 9 corollary: one setup serves every later broadcast",
		Header: []string{"messages", "CGCAST total", "flooding total", "winner"},
	}

	g, err := graph.ClusterChain(length, clusterSize)
	if err != nil {
		return nil, err
	}
	a, err := chanassign.SharedCore(g.N(), c, k, rng.New(seed))
	if err != nil {
		return nil, err
	}
	in, err := newInstance(g, a)
	if err != nil {
		return nil, err
	}
	d := g.Diameter()

	session, err := core.PrepareCGCast(in.nw, core.SessionConfig{Params: in.p, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	dres, err := session.Disseminate(d, 0, seed+2)
	if err != nil {
		return nil, err
	}
	if dres.AllInformedAt < 0 {
		return nil, fmt.Errorf("experiments: dissemination left nodes uninformed")
	}

	var floodTimes []float64
	for i := 0; i < floodTrials; i++ {
		fres, err := core.RunFloodCtx(context.Background(), in.nw, in.p, d, radio.NodeID(0), seed+3+uint64(i)*31)
		if err != nil {
			return nil, err
		}
		if !fres.AllInformed {
			return nil, fmt.Errorf("experiments: flooding left nodes uninformed")
		}
		floodTimes = append(floodTimes, float64(fres.AllInformedAt))
	}
	flood := int64(median(floodTimes))

	setup := session.SetupSlots()
	perMsg := dres.ScheduleSlots
	counts := []int64{1, 100, 1000, 10000}
	if flood > perMsg {
		// Include one count beyond the crossover so the winner column
		// flips inside the table.
		counts = append(counts, 2*(setup/(flood-perMsg)+1))
	}
	for _, m := range counts {
		cg := setup + m*perMsg
		fl := m * flood
		winner := "flooding"
		if cg < fl {
			winner = "CGCAST"
		}
		t.AddRow(itoa(m), itoa(cg), itoa(fl), winner)
	}
	if flood > perMsg {
		breakEven := setup/(flood-perMsg) + 1
		t.AddNote("measured: setup %d slots, %d per CGCAST message vs %d per flooded message — CGCAST wins beyond ≈ %d messages", setup, perMsg, flood, breakEven)
	} else {
		t.AddNote("measured: flooding's per-message cost %d did not exceed CGCAST's %d in this regime", flood, perMsg)
	}
	return t, nil
}
