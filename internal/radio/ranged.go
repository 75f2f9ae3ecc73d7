package radio

// This file defines the batch-aware protocol ABI the slot loop drives:
// Act and Observe are dispatched over whole node ranges instead of one
// interface call per node per slot. The per-node Protocol interface
// costs two virtual calls per node-slot (~1.5µs per 64-node slot, see
// BenchmarkProtocolInterfaceFloor), which dominates once the slot
// kernel itself is vectorized; a protocol set backed by a shared
// "bank" amortizes that dispatch over a whole range with a single
// call, letting the implementation run tight loops over flat per-node
// state. A plain Protocol set runs through protocolBank, an adapter
// that makes the per-node calls itself.
//
// # Detection rules
//
// The ABI is opt-in and detected per run: at construction the engine
// probes every protocol for RangeNode. Range dispatch is used iff
// every node's protocol reports the same (pointer-comparable) bank and
// its own node index within it; any mismatch — a node that does not
// implement RangeNode, a nil bank, a foreign bank, a wrong index —
// silently falls back to the per-node adapter. Done, and the
// optional FixedSchedule bound, remain per-node interface calls: they
// are off the hot path (refreshDone is amortized by FixedSchedule).
//
// # Range semantics
//
// The engine calls ActRange/ObserveRange over maximal runs of live
// nodes, in ascending node order within a slot, so a done or down
// node's machine is never stepped — exactly the per-node contract. The
// slices are indexed by absolute node id (lo and hi delimit the valid
// window). A bank must behave exactly as if Act(slot) and
// Observe(slot, ·) had been invoked per node in ascending order. The
// engine calls a bank from one goroutine only; a slot's ObserveRange
// calls follow all of that slot's resolution, including its traces.

// Delivery is one node's resolved slot outcome on the range ABI: the
// broadcaster heard (exactly one broadcasting neighbor on the node's
// channel), or From < 0 for everything a per-node Observe reports as
// nil — silence, collision, jam, or a non-listening action. Data is
// only valid during the ObserveRange call (the engine reuses the
// backing storage across slots), mirroring the Message contract.
type Delivery struct {
	From NodeID
	Data any
}

// RangeProtocol is the batch-aware protocol ABI. ActRange fills
// acts[u] for every u in [lo, hi); ObserveRange consumes
// deliveries[u] for every u in [lo, hi). Both must be equivalent to
// the per-node calls in ascending node order (see the file comment).
type RangeProtocol interface {
	ActRange(slot int64, lo, hi int, acts []Action)
	ObserveRange(slot int64, lo, hi int, deliveries []Delivery)
}

// RangeNode is optionally implemented by per-node protocols that are
// views into a shared RangeProtocol bank. RangeBank returns the bank
// and the node's index within it; a nil bank opts out (per-node
// dispatch). The bank's dynamic type must be pointer-comparable.
type RangeNode interface {
	RangeBank() (RangeProtocol, int)
}

// detectRangeBank returns the shared bank iff every protocol is a
// RangeNode view into the same bank at its own index; nil means
// per-node dispatch.
func detectRangeBank(protocols []Protocol) RangeProtocol {
	if len(protocols) == 0 {
		return nil
	}
	rn, ok := protocols[0].(RangeNode)
	if !ok {
		return nil
	}
	bank, idx := rn.RangeBank()
	if bank == nil || idx != 0 {
		return nil
	}
	for u := 1; u < len(protocols); u++ {
		rn, ok := protocols[u].(RangeNode)
		if !ok {
			return nil
		}
		b, i := rn.RangeBank()
		if b != bank || i != u {
			return nil
		}
	}
	return bank
}

// RangeDispatch reports whether the run uses the protocols' own bank
// (every protocol is a RangeNode view into one shared bank) rather
// than the per-node adapter. Diagnostic only — both are
// byte-identical.
func (e *Engine) RangeDispatch() bool { return e.be.RangeDispatch(0) }

// RangeDispatch reports whether replica r uses its protocols' own
// bank. Diagnostic only.
func (e *BatchEngine) RangeDispatch(r int) bool { return e.reps[r].ranged }

// protocolBank runs a plain per-node Protocol set on the range ABI:
// ActRange and ObserveRange call Act and Observe node by node in
// ascending order, handing every delivery to Observe through one
// scratch Message — which is why the Observe contract limits a
// message's lifetime to the call.
type protocolBank struct {
	protocols []Protocol
	msg       Message
}

func (b *protocolBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u, p := range b.protocols[lo:hi] {
		acts[lo+u] = p.Act(slot)
	}
}

func (b *protocolBank) ObserveRange(slot int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		var msg *Message
		if d := &deliveries[u]; d.From >= 0 {
			b.msg = Message(*d)
			msg = &b.msg
		}
		b.protocols[u].Observe(slot, msg)
	}
}
