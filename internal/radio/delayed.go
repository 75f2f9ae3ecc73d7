package radio

// Delayed wraps a protocol so it wakes up at a fixed slot, idling
// (radio off) before then. The paper assumes all nodes start
// simultaneously; this wrapper lets experiments probe how sensitive
// the algorithms are to that assumption by staggering wake-ups.
//
// The inner protocol never observes pre-start slots: its own slot
// arithmetic therefore runs on its local clock, exactly as if the node
// had just powered on.
type Delayed struct {
	// Start is the first slot the inner protocol runs in.
	Start int64
	// Inner is the wrapped protocol.
	Inner Protocol

	started bool
}

var _ Protocol = (*Delayed)(nil)

// Act implements Protocol.
func (d *Delayed) Act(slot int64) Action {
	if slot < d.Start {
		return Action{Kind: Idle}
	}
	d.started = true
	return d.Inner.Act(slot)
}

// Observe implements Protocol.
func (d *Delayed) Observe(slot int64, dv Delivery) {
	if slot < d.Start {
		return
	}
	d.Inner.Observe(slot, dv)
}

// Done implements Protocol.
func (d *Delayed) Done() bool {
	return d.started && d.Inner.Done()
}
