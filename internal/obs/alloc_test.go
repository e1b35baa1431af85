package obs

import (
	"testing"

	"sprwl/internal/env"
)

// nopSink drains batches without keeping them, so the measurement below
// covers the ring's own emit-and-flush cycle rather than a sink's copy.
type nopSink struct{ events int }

func (s *nopSink) Drain(slot int, events []Event) { s.events += len(events) }

// TestRecordDoesNotAllocate pins the hot-path contract from the package
// doc: recording an event — including the amortized flush into the sinks
// when the ring fills — performs zero heap allocations, interface dispatch
// into the sink and slice re-use in flush included.
func TestRecordDoesNotAllocate(t *testing.T) {
	sink := &nopSink{}
	p := NewPipeline(1, sink)
	r := p.Thread(0)

	emit := func() {
		// One of each event kind, enough times to cross several
		// ring-full flush boundaries inside the measured runs.
		for i := 0; i < 2*ringEvents; i++ {
			ts := uint64(i)
			r.Section(Reader, 0, env.ModeHTM, ts, ts+10)
			r.Abort(Writer, 1, env.AbortConflict, ts)
			r.Wait(WaitRSync, Reader, 0, ts, ts+5)
			r.SGL(1, ts, ts+20)
			r.Tx(0, env.Committed, ts, ts+3)
		}
	}
	emit() // warm up: first flush, sink growth, etc.

	if avg := testing.AllocsPerRun(100, emit); avg != 0 {
		t.Fatalf("ring emit allocated %.2f objects per run, want 0", avg)
	}
	p.Flush()
	if sink.events == 0 {
		t.Fatal("sink saw no events; the measurement exercised nothing")
	}
}

// TestNilRingRecordDoesNotAllocate covers the detached configuration: with
// no pipeline attached, handles hold a nil *Ring and every record call
// must reduce to a branch.
func TestNilRingRecordDoesNotAllocate(t *testing.T) {
	var r *Ring
	emit := func() {
		for i := 0; i < 64; i++ {
			r.Section(Reader, 0, env.ModeHTM, 0, 1)
			r.Tx(0, env.Committed, 0, 1)
		}
	}
	if avg := testing.AllocsPerRun(100, emit); avg != 0 {
		t.Fatalf("nil-ring emit allocated %.2f objects per run, want 0", avg)
	}
}
