// Package trace records radio-engine executions as structured event
// streams. Traces serve three purposes: debugging (crntrace renders
// them), regression checking (same seed ⇒ byte-identical trace), and
// analysis (delivery timelines feed experiment post-processing).
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
// order. Attach with Attach.
type Recorder struct {
	events []Event
}

// Attach registers the recorder on an engine. It replaces any
// previously installed trace callback.
func (r *Recorder) Attach(e *radio.Engine) {
	e.SetTrace(func(slot int64, listener radio.NodeID, ch int32, msg *radio.Message) {
		r.events = append(r.events, Event{
			Slot:     slot,
			Listener: int32(listener),
			Sender:   int32(msg.From),
			Channel:  ch,
		})
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

// Summary aggregates a trace for quick inspection.
type Summary struct {
	// Events is the total number of deliveries.
	Events int `json:"events"`
	// FirstSlot and LastSlot bound the delivery activity.
	FirstSlot int64 `json:"firstSlot"`
	LastSlot  int64 `json:"lastSlot"`
	// PerChannel counts deliveries per global channel.
	PerChannel map[int32]int `json:"perChannel"`
	// PerListener counts deliveries per listening node.
	PerListener map[int32]int `json:"perListener"`
}

// Summarize computes a Summary of the events.
func Summarize(events []Event) Summary {
	s := Summary{
		PerChannel:  make(map[int32]int),
		PerListener: make(map[int32]int),
		FirstSlot:   -1,
		LastSlot:    -1,
	}
	for _, ev := range events {
		s.Events++
		if s.FirstSlot == -1 || ev.Slot < s.FirstSlot {
			s.FirstSlot = ev.Slot
		}
		if ev.Slot > s.LastSlot {
			s.LastSlot = ev.Slot
		}
		s.PerChannel[ev.Channel]++
		s.PerListener[ev.Listener]++
	}
	return s
}
