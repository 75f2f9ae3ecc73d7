// Package trace records radio-engine executions as structured event
// streams. Traces serve two purposes: debugging (crntrace renders
// them) and regression checking (same seed ⇒ byte-identical trace).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"crn/internal/radio"
)

// Event is one recorded delivery: a listener heard a frame.
type Event struct {
	// Slot is the engine slot of the delivery.
	Slot int64 `json:"slot"`
	// Listener is the node that heard the frame.
	Listener int32 `json:"listener"`
	// Sender is the node whose frame was heard.
	Sender int32 `json:"sender"`
	// Channel is the global channel the frame crossed.
	Channel int32 `json:"channel"`
}

// Recorder accumulates delivery events from an engine run in delivery
// order. Install it as a network's trace: nw.Trace = rec.Trace.
type Recorder struct {
	events []Event
}

// Trace records one delivery; it has radio.TraceFunc's signature.
func (r *Recorder) Trace(slot int64, listener radio.NodeID, ch int32, d radio.Delivery) {
	r.events = append(r.events, Event{
		Slot:     slot,
		Listener: int32(listener),
		Sender:   int32(d.From),
		Channel:  ch,
	})
}

// Record appends one event directly — for collectors fed by delivery
// callbacks outside this package (e.g. the facade's WithDeliveryTrace)
// that want the Recorder's serialization and comparison helpers.
func (r *Recorder) Record(ev Event) { r.events = append(r.events, ev) }

// Events returns the recorded events in delivery order. The caller
// must not modify the slice.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// WriteJSONL streams the events as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.events {
		if err := enc.Encode(&r.events[i]); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON Lines stream produced by WriteJSONL.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(rd)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: decode event %d: %w", len(out), err)
		}
		out = append(out, ev)
	}
}

// Equal reports whether two event streams are identical.
func Equal(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
