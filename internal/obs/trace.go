package obs

import (
	"bufio"
	"fmt"
	"io"

	"sprwl/internal/env"
)

// TraceSink accumulates the full event stream and renders it in the Chrome
// trace-event ("catapult") JSON format, loadable in chrome://tracing,
// Perfetto, or speedscope. One timeline row per thread slot; critical
// sections, waits, transaction attempts and fallback holds render as
// nested spans, aborts as instant markers — which makes the paper's
// Figure-style reader/writer overlap schedules directly observable.
//
// Drain copies events into per-slot slices (allocation happens here, off
// the recording hot path); WriteTo renders the merged timeline.
type TraceSink struct {
	perSlot [][]Event
}

// NewTraceSink builds a trace sink for n thread slots.
func NewTraceSink(n int) *TraceSink {
	if n < 1 {
		n = 1
	}
	return &TraceSink{perSlot: make([][]Event, n)}
}

// Drain implements Sink.
func (t *TraceSink) Drain(slot int, events []Event) {
	if slot < 0 || slot >= len(t.perSlot) {
		return
	}
	t.perSlot[slot] = append(t.perSlot[slot], events...)
}

// cyclesPerMicro scales cycle timestamps to the trace format's microsecond
// unit. Under the real runtime cycles are nanoseconds; under the simulator
// they are virtual cycles — either way 1000 cycles per µs keeps spans at a
// readable zoom level.
const cyclesPerMicro = 1000.0

func traceTS(cycles uint64) float64 { return float64(cycles) / cyclesPerMicro }

// WriteTo renders the accumulated events as one Chrome-trace JSON object
// ({"traceEvents": [...]}) and implements io.WriterTo.
func (t *TraceSink) WriteTo(w io.Writer) (int64, error) {
	bw := &countingWriter{w: bufio.NewWriter(w)}
	fmt.Fprintf(bw, "{\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			fmt.Fprintf(bw, ",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for slot := range t.perSlot {
		emit(`{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":"worker-%d"}}`, slot, slot)
	}
	for slot, events := range t.perSlot {
		for i := range events {
			ev := &events[i]
			switch ev.Kind {
			case EvSection:
				name := "read"
				if ev.RW == Writer {
					name = "write"
				}
				emit(`{"ph":"X","name":%q,"cat":"cs","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"cs":%d,"mode":%q}}`,
					name, slot, traceTS(ev.TS), float64(ev.Dur)/cyclesPerMicro, ev.CS, env.CommitMode(ev.Code).String())
			case EvWait:
				emit(`{"ph":"X","name":%q,"cat":"wait","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"cs":%d}}`,
					"wait:"+WaitReasonString(ev.Code), slot, traceTS(ev.TS), float64(ev.Dur)/cyclesPerMicro, ev.CS)
			case EvAbort:
				emit(`{"ph":"i","s":"t","name":%q,"cat":"abort","pid":1,"tid":%d,"ts":%.3f,"args":{"cs":%d}}`,
					"abort:"+env.AbortCause(ev.Code).String(), slot, traceTS(ev.TS), ev.CS)
			case EvSGL:
				emit(`{"ph":"X","name":"sgl-held","cat":"fallback","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"cs":%d}}`,
					slot, traceTS(ev.TS), float64(ev.Dur)/cyclesPerMicro, ev.CS)
			case EvTx:
				name := "tx"
				if c := env.AbortCause(ev.Code); c != env.Committed {
					name = "tx:" + c.String()
				}
				emit(`{"ph":"X","name":%q,"cat":"htm","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{}}`,
					name, slot, traceTS(ev.TS), float64(ev.Dur)/cyclesPerMicro)
			case EvReaders:
				emit(`{"ph":"i","s":"t","name":%q,"cat":"readers","pid":1,"tid":%d,"ts":%.3f,"args":{"cs":%d}}`,
					"readers:"+ReadersCodeString(ev.Code), slot, traceTS(ev.TS), ev.CS)
			case EvPark:
				if ev.Code == ParkParked {
					emit(`{"ph":"X","name":"parked","cat":"park","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"cs":%d}}`,
						slot, traceTS(ev.TS), float64(ev.Dur)/cyclesPerMicro, ev.CS)
					continue
				}
				emit(`{"ph":"i","s":"t","name":%q,"cat":"park","pid":1,"tid":%d,"ts":%.3f,"args":{"cs":%d}}`,
					"park:"+ParkCodeString(ev.Code), slot, traceTS(ev.TS), ev.CS)
			}
		}
	}
	fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ns\"}\n")
	err := bw.w.(*bufio.Writer).Flush()
	return bw.n, err
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
