package core

import (
	"fmt"

	"crn/internal/radio"
	"crn/internal/rng"
)

// CSEEK (Section 4.2, Figure 1) solves neighbor discovery in
// O~((c²/k) + (kmax/k)·Δ) slots, w.h.p.
//
// Part one: Θ((c²/k)·lg n) steps. Each step the node goes to a
// uniformly random channel, flips a fair coin to become broadcaster or
// listener, and runs COUNT on that channel. Listeners accumulate the
// per-channel counts (the channel "density" samples) and record every
// identity heard; broadcasters announce their identity per the COUNT
// schedule.
//
// Part two: Θ((kmax/k)·Δ·lg n) steps of lg Δ slots. Each step the node
// flips a coin: a broadcaster picks a uniformly random channel and runs
// a back-off (broadcast with probability 2^(i-1)/Δ in the i-th slot); a
// listener picks a channel with probability proportional to the count
// it accumulated in part one — spending its time where it expects the
// most undiscovered neighbors — and records every identity heard.
//
// CKSEEK (Section 4.4) is the same machine with shorter schedules: part
// one Θ((c²/k̂)·lg n) steps and part two Θ(((kmax/k̂)·Δ_k̂ + Δ + c)·lg n)
// steps, solving k̂-neighbor-discovery (Theorem 6).
//
// The same machine also doubles as CGCAST's message-exchange
// primitive: a neighbor discovery run is exactly a pairwise exchange
// (Section 5.1), and what a frame would carry is a function of its
// sender's state, so CGCAST decodes each exchange from who heard whom
// (DESIGN.md "Exchange fidelity"). Frames carry no data; the sender's
// identity travels as radio.Message.From.

// CSeek is the CSEEK/CKSEEK protocol state machine for one node. Its
// first-heard table (Heard, FirstHeard, DiscoveredCount) is the only
// record of whom it heard.
type CSeek struct {
	sched *seekSchedule
	rand  *rng.Source

	slot int64 // slots consumed so far (also the next Act's offset)

	// Per-step state.
	step        uint32 // steps begun so far: the stamp of this step's hearings
	stepKind    stepKind
	isListener  bool
	ch          int           // local channel for this step
	stepSlot    int           // slot offset within the current step
	count       countListener // the COUNT execution of a part-one step
	p2Broadcast uint64        // back-off decisions of a part-two step, bit i for slot i

	// Accumulated results.
	counts   []int64 // per-local-channel COUNT totals from part one
	countSum int64
	heardTable

	// recordChannels, when set, logs the local channel used in every
	// slot; CGCAST needs the log to fix dedicated channels.
	recordChannels bool
	channelLog     []int32

	// bank/bankIdx back-reference the SeekBank this machine is a member
	// of (range dispatch, see bank.go); nil means per-node dispatch.
	bank    *SeekBank
	bankIdx int
}

type stepKind uint8

const (
	partOne stepKind = iota + 1
	partTwo
	finished
)

// seekSchedule fixes the step layout of one CSEEK/CKSEEK execution and
// its draw probabilities. It is immutable, so every machine of a run
// shares one.
type seekSchedule struct {
	c           int // channels per node
	delta       int // Δ: the capacity of a first-heard table window
	p1Steps     int
	p2Steps     int
	count       countSchedule
	countTotal  int // count.TotalSlots(), cached for the per-slot path
	p2SlotsStep int
	// backoff[i] is the coin of slot i of a part-two broadcaster step
	// (see backoffCoins): the paper's 2^(i-1)/Δ in 1-based slots.
	backoff []rng.Coin
	p1Slots int64 // part one's slot count
	total   int64 // the execution's slot count
}

// seekSchedule returns the schedule of p1Steps part-one and p2Steps
// part-two steps; p must be normalized.
func (p Params) seekSchedule(p1Steps, p2Steps int) *seekSchedule {
	count := p.countSchedule()
	lgd := p.LgDelta()
	p1Slots := int64(p1Steps) * int64(count.TotalSlots())
	return &seekSchedule{
		c:           p.C,
		delta:       p.Delta,
		p1Steps:     p1Steps,
		p2Steps:     p2Steps,
		count:       count,
		countTotal:  count.TotalSlots(),
		p2SlotsStep: lgd,
		backoff:     p.backoffCoins(),
		p1Slots:     p1Slots,
		total:       p1Slots + int64(p2Steps)*int64(lgd),
	}
}

// backoffCoins returns the coins of one lg Δ-slot back-off sweep: slot
// i (0-based) broadcasts with probability 2^i / 2^(lgΔ).
func (p Params) backoffCoins() []rng.Coin {
	lgd := p.LgDelta()
	coins := make([]rng.Coin, lgd)
	denom := int64(1) << uint(lgd)
	for i := range coins {
		coins[i] = rng.NewCoin(float64(int64(1)<<uint(i)) / float64(denom))
	}
	return coins
}

// cseekSchedule normalizes p and returns the Theorem 4 schedule.
func cseekSchedule(p *Params) (*seekSchedule, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	lgn := p.LgN()
	p1 := scaledSteps(p.Tuning.P1Steps, ceilDiv(p.C*p.C, p.K), lgn)
	p2 := scaledSteps(p.Tuning.P2Steps, ceilDiv(p.KMax*p.Delta, p.K), lgn)
	return p.seekSchedule(p1, p2), nil
}

// ckseekSchedule normalizes p and returns the Theorem 6 schedule.
func ckseekSchedule(p *Params, khat, deltaKhat int) (*seekSchedule, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if khat < p.K || khat > p.KMax {
		return nil, fmt.Errorf("core: k̂ must be in [k,kmax] = [%d,%d], got %d", p.K, p.KMax, khat)
	}
	if deltaKhat < 0 || deltaKhat > p.Delta {
		return nil, fmt.Errorf("core: Δ_k̂ must be in [0,Δ] = [0,%d], got %d", p.Delta, deltaKhat)
	}
	lgn := p.LgN()
	p1 := scaledSteps(p.Tuning.P1Steps, ceilDiv(p.C*p.C, khat), lgn)
	base := ceilDiv(p.KMax*deltaKhat, khat) + p.Delta + p.C
	p2 := scaledSteps(p.Tuning.P2Steps, base, lgn)
	return p.seekSchedule(p1, p2), nil
}

// NewCSeek returns the CSEEK machine for one node (Theorem 4
// schedule).
func NewCSeek(p Params, env Env) (*CSeek, error) {
	sched, err := cseekSchedule(&p)
	if err != nil {
		return nil, err
	}
	return newSeek(p, sched, env)
}

// NewCKSeek returns the CKSEEK machine for k̂-neighbor-discovery
// (Theorem 6 schedule). khat must be in [k, kmax]; deltaKhat is Δ_k̂,
// the maximum number of good neighbors a node can have (pass Δ when no
// estimate is available, matching the paper's fallback).
func NewCKSeek(p Params, env Env, khat, deltaKhat int) (*CSeek, error) {
	sched, err := ckseekSchedule(&p, khat, deltaKhat)
	if err != nil {
		return nil, err
	}
	return newSeek(p, sched, env)
}

// NewSeekRun returns the CSEEK machines of one n-node run, attached to
// one SeekBank. Node u draws from master.Split(stream|u), so with
// stream 0 each machine matches NewCSeek(p, Env{..., Rand:
// master.Split(u)}) draw for draw.
func NewSeekRun(p Params, n int, master *rng.Source, stream uint64) ([]*CSeek, error) {
	sched, err := cseekSchedule(&p)
	if err != nil {
		return nil, err
	}
	return newSeekRun(sched, n, master, stream), nil
}

// NewCKSeekRun is NewSeekRun for CKSEEK (see NewCKSeek).
func NewCKSeekRun(p Params, n, khat, deltaKhat int, master *rng.Source, stream uint64) ([]*CSeek, error) {
	sched, err := ckseekSchedule(&p, khat, deltaKhat)
	if err != nil {
		return nil, err
	}
	return newSeekRun(sched, n, master, stream), nil
}

// newSeek builds one node's machine: buildSeeks for a single node.
func newSeek(p Params, sched *seekSchedule, env Env) (*CSeek, error) {
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	if env.Rand == nil {
		return nil, fmt.Errorf("core: env needs a random source")
	}
	return &buildSeeks(sched, 1, func(int) *rng.Source { return env.Rand })[0], nil
}

// newSeekRun builds a run's machines with their streams in one slice,
// and banks them.
func newSeekRun(sched *seekSchedule, n int, master *rng.Source, stream uint64) []*CSeek {
	rands := make([]rng.Source, n)
	for u := range rands {
		rands[u] = master.SplitValue(stream | uint64(u))
	}
	seeks := buildSeeks(sched, n, func(u int) *rng.Source { return &rands[u] })
	nodes := make([]*CSeek, n)
	for u := range seeks {
		nodes[u] = &seeks[u]
	}
	NewSeekBank(nodes)
	return nodes
}

// buildSeeks is the one construction path of CSEEK and CKSEEK
// machines. It lays n machines sharing sched over contiguous storage:
// their part-one counts in one n×c array, and their first-heard tables
// in windows of capacity Δ into three run-wide arrays (see heardTable
// for what happens past Δ). Each machine rolls its first step's
// choices on its stream rand(u) before it returns.
func buildSeeks(sched *seekSchedule, n int, rand func(u int) *rng.Source) []CSeek {
	c, delta := sched.c, sched.delta
	seeks := make([]CSeek, n)
	counts := make([]int64, n*c)
	ids := make([]radio.NodeID, n*delta)
	slots := make([]int64, n*delta)
	stamps := make([]uint32, n*delta)
	first := partOne
	if sched.p1Steps == 0 {
		first = partTwo
	}
	for u := range seeks {
		lo, hi := u*delta, (u+1)*delta
		s := &seeks[u]
		s.sched = sched
		s.rand = rand(u)
		s.counts = counts[u*c : (u+1)*c : (u+1)*c]
		s.heardTable = heardTable{ids: ids[lo:lo:hi], slots: slots[lo:lo:hi], stamps: stamps[lo:lo:hi]}
		s.stepKind = first
		s.beginStep()
	}
	return seeks
}

// RecordChannels enables the per-slot channel log needed by CGCAST's
// dedicated-channel fixing. Must be called before the run starts.
func (s *CSeek) RecordChannels() {
	s.recordChannels = true
	s.channelLog = make([]int32, 0, s.sched.total)
}

// TotalSlots returns the fixed length of this execution.
func (s *CSeek) TotalSlots() int64 { return s.sched.total }

// MinDoneSlots implements radio.FixedSchedule: CSEEK's state machine
// reaches `finished` exactly when its fixed schedule ends, never
// earlier, so the engine may skip Done polls until then.
func (s *CSeek) MinDoneSlots() int64 { return s.sched.total }

// PartOneSlots returns the slot count of part one (the density-
// sampling part, O~((c²/k)·lg³n)).
func (s *CSeek) PartOneSlots() int64 { return s.sched.p1Slots }

// PartTwoSlots returns the slot count of part two (the density-guided
// part, O~((kmax/k)·Δ·lg²n)).
func (s *CSeek) PartTwoSlots() int64 { return s.sched.total - s.sched.p1Slots }

// beginStep rolls the per-step random choices.
func (s *CSeek) beginStep() {
	s.stepSlot = 0
	s.step++
	switch s.stepKind {
	case partOne:
		s.ch = s.rand.Intn(s.sched.c)
		s.isListener = s.rand.Bool()
		s.count = countListener{}
	case partTwo:
		s.isListener = s.rand.Bool()
		if s.isListener {
			if s.countSum > 0 {
				s.ch = s.rand.WeightedChoice(s.counts)
			} else {
				// No density information (no counts triggered in part
				// one): fall back to uniform.
				s.ch = s.rand.Intn(s.sched.c)
			}
		} else {
			s.ch = s.rand.Intn(s.sched.c)
			// Back-off: broadcast with probability 2^(i-1)/Δ in slot i.
			s.p2Broadcast = 0
			for i, c := range s.sched.backoff {
				if s.rand.Toss(c) {
					s.p2Broadcast |= 1 << uint(i)
				}
			}
		}
	}
}

// Act implements radio.Protocol.
func (s *CSeek) Act(_ int64) radio.Action {
	var a radio.Action
	switch s.stepKind {
	case partOne:
		if s.isListener {
			a = radio.Action{Kind: radio.Listen, Ch: s.ch}
		} else if s.rand.Toss(s.sched.count.coins[s.count.round]) {
			a = radio.Action{Kind: radio.Broadcast, Ch: s.ch}
		} else {
			// Stay tuned to the step's channel while silent so the
			// channel log stays meaningful.
			a = radio.Action{Kind: radio.Idle, Ch: s.ch}
		}
	case partTwo:
		if s.isListener {
			a = radio.Action{Kind: radio.Listen, Ch: s.ch}
		} else if s.p2Broadcast>>uint(s.stepSlot)&1 != 0 {
			a = radio.Action{Kind: radio.Broadcast, Ch: s.ch}
		} else {
			a = radio.Action{Kind: radio.Idle, Ch: s.ch}
		}
	default:
		a = radio.Action{Kind: radio.Idle}
	}
	if s.recordChannels {
		s.channelLog = append(s.channelLog, int32(s.ch))
	}
	return a
}

// Observe implements radio.Protocol.
func (s *CSeek) Observe(_ int64, msg *radio.Message) {
	if msg == nil {
		s.observeOutcome(false, 0)
		return
	}
	s.observeOutcome(true, msg.From)
}

// observeOutcome is Observe with the delivery already unpacked: the
// SeekBank's range dispatch feeds outcomes here directly, so both
// dispatch modes run the identical state machine (byte-identity by
// construction) and the range path never materializes a Message.
func (s *CSeek) observeOutcome(heard bool, from radio.NodeID) {
	heard = heard && s.isListener
	switch s.stepKind {
	case partOne:
		// The table's step stamp tells COUNT whether this sender is new
		// to the step.
		fresh := heard && s.hear(from, s.slot, s.step)
		s.count.observeOutcome(&s.sched.count, heard, fresh)
		s.stepSlot++
		if s.stepSlot == s.sched.countTotal {
			if s.isListener {
				c := s.count.count()
				s.counts[s.ch] += c
				s.countSum += c
			}
			s.advanceStep()
		}
	case partTwo:
		if heard {
			s.hear(from, s.slot, s.step)
		}
		s.stepSlot++
		if s.stepSlot == s.sched.p2SlotsStep {
			s.advanceStep()
		}
	}
	s.slot++
}

func (s *CSeek) advanceStep() {
	switch s.stepKind {
	case partOne:
		if s.slot+1 >= s.sched.p1Slots {
			s.stepKind = partTwo
			if s.sched.p2Steps == 0 {
				s.stepKind = finished
				return
			}
		}
	case partTwo:
		if s.slot+1 >= s.sched.total {
			s.stepKind = finished
			return
		}
	}
	s.beginStep()
}

// Done implements radio.Protocol.
func (s *CSeek) Done() bool { return s.stepKind == finished }

// ChannelAt returns the local channel the node was tuned to in the
// given slot of this run; RecordChannels must have been enabled.
func (s *CSeek) ChannelAt(slot int64) (int32, bool) {
	if !s.recordChannels || slot < 0 || slot >= int64(len(s.channelLog)) {
		return 0, false
	}
	return s.channelLog[slot], true
}

// Counts returns the per-local-channel density counts accumulated in
// part one. The caller must not modify the slice.
func (s *CSeek) Counts() []int64 { return s.counts }
