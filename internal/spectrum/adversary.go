package spectrum

import "sort"

// RunScoped is implemented by stateful jammers — models whose answers
// depend on what happened earlier in a run, like ReactiveAdversary.
// Callers that share one scenario across concurrent simulation runs
// (the facade, the sweep engine) must call NewRun once per run and
// install the returned instance, so runs never share mutable state.
// Stateless jammers simply don't implement the interface.
type RunScoped interface {
	// NewRun returns a fresh instance with the same configuration and
	// cleared per-run state.
	NewRun() Jammer
}

// ReactiveAdversary is the paper's t-bounded adaptive adversary: each
// slot it may jam up to T channels, chosen by watching the secondary
// users. The radio engine reports aggregate activity (broadcast counts
// per global channel) at the end of every slot via ObserveActivity;
// the adversary then jams the T busiest channels of that slot during
// the NEXT slot — a one-slot reaction delay, matching an adversary
// that senses but cannot react within a slot.
//
// Ties break toward the lower channel index and channels with no
// observed broadcasts are never jammed, so the choice is a
// deterministic function of the observed activity. ReactiveAdversary
// is stateful: it implements RunScoped and must be instantiated per
// run. Between ObserveActivity calls it is read-only.
type ReactiveAdversary struct {
	// T is the per-slot jamming budget: the maximum number of channels
	// jammed in any one slot.
	T int

	armedFor int64  // slot the current target set applies to
	targets  []bool // per channel, jam in slot armedFor
	order    []int  // scratch: candidate channels by activity
}

// NewReactiveAdversary returns a t-bounded reactive adversary.
// t <= 0 yields an adversary that never jams.
func NewReactiveAdversary(t int) *ReactiveAdversary {
	return &ReactiveAdversary{T: t, armedFor: -1}
}

// NewRun implements RunScoped.
func (a *ReactiveAdversary) NewRun() Jammer { return NewReactiveAdversary(a.T) }

// Jammed implements Jammer.
func (a *ReactiveAdversary) Jammed(slot int64, ch int32) bool {
	return slot == a.armedFor && int(ch) >= 0 && int(ch) < len(a.targets) && a.targets[ch]
}

// ObserveActivity records one slot's aggregate secondary-user activity
// (broadcast count per global channel) and arms the jam set for the
// following slot. The engine calls it exactly once per slot, after the
// slot resolves; broadcastsByChannel is a scratch buffer the engine
// reuses, so the adversary copies what it needs.
func (a *ReactiveAdversary) ObserveActivity(slot int64, broadcastsByChannel []int) {
	if len(a.targets) < len(broadcastsByChannel) {
		a.targets = make([]bool, len(broadcastsByChannel))
	}
	for ch := range a.targets {
		a.targets[ch] = false
	}
	a.armedFor = slot + 1
	if a.T <= 0 {
		return
	}
	a.order = a.order[:0]
	for ch, n := range broadcastsByChannel {
		if n > 0 {
			a.order = append(a.order, ch)
		}
	}
	counts := broadcastsByChannel
	sort.SliceStable(a.order, func(i, j int) bool {
		if counts[a.order[i]] != counts[a.order[j]] {
			return counts[a.order[i]] > counts[a.order[j]]
		}
		return a.order[i] < a.order[j]
	})
	budget := a.T
	if budget > len(a.order) {
		budget = len(a.order)
	}
	for _, ch := range a.order[:budget] {
		a.targets[ch] = true
	}
}
