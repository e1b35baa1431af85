package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sprwl/internal/env"
)

// captureSink records every drained batch, tagged by slot.
type captureSink struct {
	batches []struct {
		slot   int
		events []Event
	}
}

func (c *captureSink) Drain(slot int, events []Event) {
	cp := make([]Event, len(events))
	copy(cp, events)
	c.batches = append(c.batches, struct {
		slot   int
		events []Event
	}{slot, cp})
}

func (c *captureSink) all() []Event {
	var out []Event
	for _, b := range c.batches {
		out = append(out, b.events...)
	}
	return out
}

func TestNilRingAndPipelineAreSafe(t *testing.T) {
	var p *Pipeline
	r := p.Thread(3) // nil pipeline hands out nil rings
	if r != nil {
		t.Fatalf("nil pipeline returned non-nil ring")
	}
	// None of these may panic.
	r.Record(Event{Kind: EvSection})
	r.Section(Reader, 0, env.ModeHTM, 1, 2)
	r.Abort(Writer, 0, env.AbortConflict, 3)
	r.Wait(WaitRSync, Reader, 0, 1, 5)
	r.SGL(0, 1, 2)
	r.Tx(0, env.Committed, 1, 2)
	r.Park(ParkParked, Reader, 0, 1, 2)
	r.Readers(ReadersSwitch, -1, 3)
	p.Flush()
}

func TestRecordFlushesOnFullRing(t *testing.T) {
	sink := &captureSink{}
	p := NewPipeline(2, sink)
	r := p.Thread(1)
	total := ringEvents + 5
	for i := 0; i < total; i++ {
		r.Section(Reader, i, env.ModeHTM, uint64(i), uint64(i+1))
	}
	// The full ring drained once already; the tail needs an explicit flush.
	if len(sink.batches) != 1 {
		t.Fatalf("batches before flush = %d, want 1", len(sink.batches))
	}
	if got := len(sink.batches[0].events); got != ringEvents {
		t.Fatalf("first batch size = %d, want %d", got, ringEvents)
	}
	if sink.batches[0].slot != 1 {
		t.Fatalf("batch slot = %d, want 1", sink.batches[0].slot)
	}
	p.Flush()
	events := sink.all()
	if len(events) != total {
		t.Fatalf("total drained = %d, want %d", len(events), total)
	}
	for i, ev := range events {
		if ev.CS != int32(i) || ev.TS != uint64(i) || ev.Dur != 1 {
			t.Fatalf("event %d out of order or corrupted: %+v", i, ev)
		}
	}
	// A second flush with nothing buffered must not re-deliver.
	p.Flush()
	if got := len(sink.all()); got != total {
		t.Fatalf("double flush re-delivered: %d events, want %d", got, total)
	}
}

func TestEventFieldEncoding(t *testing.T) {
	sink := &captureSink{}
	p := NewPipeline(1, sink)
	r := p.Thread(0)

	r.Section(Writer, 7, env.ModeGL, 100, 150)
	r.Abort(Writer, 7, env.AbortReader, 200)
	r.Abort(Writer, 7, env.Committed, 201) // dropped: not an abort
	r.Wait(WaitWSync, Writer, 7, 300, 350)
	r.Wait(WaitWSync, Writer, 7, 400, 400) // dropped: zero duration
	r.SGL(7, 500, 560)
	r.Tx(-1, env.AbortCapacity, 600, 620)
	r.Park(ParkParked, Reader, 7, 700, 90)
	r.Park(ParkWake, Writer, 7, 800, 0)
	r.Readers(ReadersRevoked, -1, 900)
	p.Flush()

	events := sink.all()
	want := []Event{
		{TS: 100, Dur: 50, CS: 7, Kind: EvSection, RW: Writer, Code: uint8(env.ModeGL)},
		{TS: 200, CS: 7, Kind: EvAbort, RW: Writer, Code: uint8(env.AbortReader)},
		{TS: 300, Dur: 50, CS: 7, Kind: EvWait, RW: Writer, Code: WaitWSync},
		{TS: 500, Dur: 60, CS: 7, Kind: EvSGL, RW: Writer, Code: 0},
		{TS: 600, Dur: 20, CS: -1, Kind: EvTx, Code: uint8(env.AbortCapacity)},
		{TS: 700, Dur: 90, CS: 7, Kind: EvPark, RW: Reader, Code: ParkParked},
		{TS: 800, CS: 7, Kind: EvPark, RW: Writer, Code: ParkWake},
		{TS: 900, CS: -1, Kind: EvReaders, Code: ReadersRevoked},
	}
	if len(events) != len(want) {
		t.Fatalf("drained %d events, want %d: %+v", len(events), len(want), events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestPipelineFansOutToAllSinks(t *testing.T) {
	a, b := &captureSink{}, &captureSink{}
	p := NewPipeline(1, a, b)
	p.Thread(0).Section(Reader, 0, env.ModeHTM, 1, 2)
	p.Flush()
	if len(a.all()) != 1 || len(b.all()) != 1 {
		t.Fatalf("sinks saw %d/%d events, want 1/1", len(a.all()), len(b.all()))
	}
}

// traceFile mirrors the catapult JSON structure for decoding.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Cat  string                 `json:"cat"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

func TestTraceSinkWritesValidCatapultJSON(t *testing.T) {
	tr := NewTraceSink(2)
	p := NewPipeline(2, tr)
	r0, r1 := p.Thread(0), p.Thread(1)
	r0.Section(Reader, 1, env.ModeUninstrumented, 1000, 3000)
	r0.Abort(Writer, 2, env.AbortConflict, 1500)
	r0.Wait(WaitRSync, Reader, 1, 500, 900)
	r1.Section(Writer, 2, env.ModeHTM, 2000, 2500)
	r1.SGL(2, 4000, 4200)
	r1.Tx(-1, env.Committed, 2000, 2400)
	p.Flush()

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}

	count := map[string]int{}
	for _, ev := range tf.TraceEvents {
		count[ev.Ph+":"+ev.Name]++
	}
	for _, want := range []string{
		"X:read", "X:write", "X:wait:rsync", "X:sgl-held", "X:tx",
		"i:abort:conflict", "M:thread_name", "M:thread_name",
	} {
		if count[want] == 0 {
			t.Errorf("trace missing event %q; have %v", want, count)
		}
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "read" {
			if ev.TS != 1.0 || ev.Dur != 2.0 { // 1000 cyc = 1 µs
				t.Errorf("read span ts/dur = %v/%v µs, want 1/2", ev.TS, ev.Dur)
			}
			if ev.TID != 0 {
				t.Errorf("read span tid = %d, want 0", ev.TID)
			}
		}
	}
}

func TestProfileSinkAttributesWaitVsWork(t *testing.T) {
	pr := NewProfileSink(1)
	p := NewPipeline(1, pr)
	r := p.Thread(0)
	// One writer section of 1000 cycles total, 300 of which were spent in
	// wsync and drain waits; the remaining 700 are work.
	r.Wait(WaitWSync, Writer, 3, 0, 200)
	r.Wait(WaitDrain, Writer, 3, 200, 300)
	r.Abort(Writer, 3, env.AbortReader, 400)
	r.Section(Writer, 3, env.ModeGL, 0, 1000)
	p.Flush()

	profs := pr.Profiles()
	if len(profs) != 1 {
		t.Fatalf("profiles = %d, want 1", len(profs))
	}
	c := profs[0]
	if c.CS != 3 || c.RW != Writer {
		t.Fatalf("profile key = cs%d/rw%d, want cs3/writer", c.CS, c.RW)
	}
	if c.Sections != 1 || c.Aborts != 1 {
		t.Fatalf("sections/aborts = %d/%d, want 1/1", c.Sections, c.Aborts)
	}
	if c.WaitCycles[WaitWSync] != 200 || c.WaitCycles[WaitDrain] != 100 {
		t.Fatalf("wait cycles = %v, want wsync=200 drain=100", c.WaitCycles)
	}
	if c.TotalWait() != 300 || c.WorkCycles != 700 {
		t.Fatalf("wait/work = %d/%d, want 300/700", c.TotalWait(), c.WorkCycles)
	}
	if pr.String() == "" {
		t.Fatal("String() rendered nothing")
	}
}

func TestWaitReasonStrings(t *testing.T) {
	seen := map[string]bool{}
	for r := uint8(0); r < NumWaitReasons; r++ {
		s := WaitReasonString(r)
		if s == "" || seen[s] {
			t.Fatalf("reason %d has empty or duplicate name %q", r, s)
		}
		seen[s] = true
	}
	if got := WaitReasonString(NumWaitReasons); got != "unknown" {
		t.Fatalf("out-of-range reason = %q, want unknown", got)
	}
}

// TestTraceSinkRendersEveryKind renders one event of each kind and code on
// slot 1 and checks every catapult field the exporter derives from it. An
// event outside the taxonomy renders nothing.
func TestTraceSinkRendersEveryKind(t *testing.T) {
	const ts, dur = 2500, 1500 // 2.5 µs, 1.5 µs
	span := func(ph, name, cat string) *traceEvent {
		return &traceEvent{Ph: ph, Name: name, Cat: cat, TS: 2.5, Dur: 1.5}
	}
	instant := func(name, cat string) *traceEvent {
		return &traceEvent{Ph: "i", Name: name, Cat: cat, TS: 2.5}
	}
	cases := []struct {
		name string
		ev   Event
		want *traceEvent // nil: nothing rendered
		mode string      // expected args.mode, sections only
		noCS bool        // the exporter writes no args.cs
	}{
		{name: "section/read", ev: Event{Kind: EvSection, RW: Reader, Code: uint8(env.ModeUninstrumented)},
			want: span("X", "read", "cs"), mode: "Unins"},
		{name: "section/write", ev: Event{Kind: EvSection, RW: Writer, Code: uint8(env.ModeGL)},
			want: span("X", "write", "cs"), mode: "GL"},
		{name: "wait/rsync", ev: Event{Kind: EvWait, Code: WaitRSync}, want: span("X", "wait:rsync", "wait")},
		{name: "wait/wsync", ev: Event{Kind: EvWait, Code: WaitWSync}, want: span("X", "wait:wsync", "wait")},
		{name: "wait/gl", ev: Event{Kind: EvWait, Code: WaitGL}, want: span("X", "wait:gl", "wait")},
		{name: "wait/drain", ev: Event{Kind: EvWait, Code: WaitDrain}, want: span("X", "wait:drain", "wait")},
		{name: "wait/quiesce", ev: Event{Kind: EvWait, Code: WaitQuiesce}, want: span("X", "wait:quiesce", "wait")},
		{name: "wait/lock", ev: Event{Kind: EvWait, Code: WaitLock}, want: span("X", "wait:lock", "wait")},
		{name: "abort", ev: Event{Kind: EvAbort, Code: uint8(env.AbortReader)}, want: instant("abort:reader", "abort")},
		{name: "sgl", ev: Event{Kind: EvSGL, RW: Writer}, want: span("X", "sgl-held", "fallback")},
		{name: "tx/commit", ev: Event{Kind: EvTx, Code: uint8(env.Committed)}, want: span("X", "tx", "htm"), noCS: true},
		{name: "tx/capacity", ev: Event{Kind: EvTx, Code: uint8(env.AbortCapacity)}, want: span("X", "tx:capacity", "htm"), noCS: true},
		{name: "readers/collision", ev: Event{Kind: EvReaders, Code: ReadersCollision}, want: instant("readers:collision", "readers")},
		{name: "readers/revoked", ev: Event{Kind: EvReaders, Code: ReadersRevoked}, want: instant("readers:revoked", "readers")},
		{name: "readers/switch", ev: Event{Kind: EvReaders, Code: ReadersSwitch}, want: instant("readers:switch", "readers")},
		{name: "park/parked", ev: Event{Kind: EvPark, Code: ParkParked}, want: span("X", "parked", "park")},
		{name: "park/wake", ev: Event{Kind: EvPark, Code: ParkWake}, want: instant("park:wake", "park")},
		{name: "park/spin-abandon", ev: Event{Kind: EvPark, Code: ParkSpinAbandon}, want: instant("park:spin-abandon", "park")},
		{name: "none", ev: Event{Kind: EvNone}},
		{name: "out-of-range", ev: Event{Kind: numKinds}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ev := c.ev
			ev.TS, ev.CS = ts, 4
			if c.want != nil && c.want.Dur != 0 {
				ev.Dur = dur
			}
			tr := NewTraceSink(2)
			tr.Drain(1, []Event{ev})
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
				t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
			}
			var got []traceEvent
			for _, te := range tf.TraceEvents {
				if te.Ph != "M" {
					got = append(got, te)
				}
			}
			if c.want == nil {
				if len(got) != 0 {
					t.Fatalf("rendered %+v, want nothing", got)
				}
				return
			}
			if len(got) != 1 {
				t.Fatalf("rendered %d events, want 1: %s", len(got), buf.String())
			}
			g, w := got[0], c.want
			if g.Ph != w.Ph || g.Name != w.Name || g.Cat != w.Cat || g.TS != w.TS || g.Dur != w.Dur {
				t.Errorf("rendered ph=%q name=%q cat=%q ts=%v dur=%v, want ph=%q name=%q cat=%q ts=%v dur=%v",
					g.Ph, g.Name, g.Cat, g.TS, g.Dur, w.Ph, w.Name, w.Cat, w.TS, w.Dur)
			}
			if g.PID != 1 || g.TID != 1 {
				t.Errorf("pid/tid = %d/%d, want 1/1", g.PID, g.TID)
			}
			if cs, ok := g.Args["cs"]; c.noCS == ok || (ok && cs != 4.0) {
				t.Errorf("args = %v, want cs=4 present=%v", g.Args, !c.noCS)
			}
			if mode, _ := g.Args["mode"].(string); mode != c.mode {
				t.Errorf("args.mode = %q, want %q", mode, c.mode)
			}
		})
	}
}

// TestProfileSinkAttributesParking checks how EvPark events fold into a
// section's profile: parked spans and spin-abandons are held with the
// pending waits until the section completes, wakes land on the releasing
// section directly, and codes outside the taxonomy are ignored.
func TestProfileSinkAttributesParking(t *testing.T) {
	waits := func(reason uint8, cycles uint64) (w [NumWaitReasons]uint64) {
		w[reason] = cycles
		return w
	}
	cases := []struct {
		name   string
		record func(r *Ring)
		want   CSProfile // the single profile, CS 5
		text   []string  // substrings of String()
	}{
		{
			name: "parked-span",
			record: func(r *Ring) {
				r.Wait(WaitRSync, Reader, 5, 0, 400)
				r.Park(ParkSpinAbandon, Reader, 5, 100, 0)
				r.Park(ParkParked, Reader, 5, 100, 250)
				r.Section(Reader, 5, env.ModeHTM, 0, 1000)
			},
			want: CSProfile{CS: 5, RW: Reader, Sections: 1, WorkCycles: 600,
				WaitCycles: waits(WaitRSync, 400), ParkedCycles: 250, Parks: 1, SpinAbandons: 1},
			text: []string{"rsync=400", "parked=250/1", "abandon=1"},
		},
		{
			name: "wake-on-release",
			record: func(r *Ring) {
				r.Section(Writer, 5, env.ModeGL, 0, 100)
				r.Park(ParkWake, Writer, 5, 100, 0)
				r.Park(ParkWake, Writer, 5, 101, 0)
			},
			want: CSProfile{CS: 5, RW: Writer, Sections: 1, WorkCycles: 100, Wakes: 2},
			text: []string{"wakes=2"},
		},
		{
			name: "parked-without-wait",
			record: func(r *Ring) {
				// A parked span with no enclosing wait recorded: the
				// parked share exceeds the total wait.
				r.Park(ParkParked, Reader, 5, 0, 300)
				r.Section(Reader, 5, env.ModeHTM, 0, 500)
			},
			want: CSProfile{CS: 5, RW: Reader, Sections: 1, WorkCycles: 500, ParkedCycles: 300, Parks: 1},
			text: []string{"parked=300/1"},
		},
		{
			name: "unknown-codes-ignored",
			record: func(r *Ring) {
				r.Wait(NumWaitReasons, Reader, 5, 0, 50)
				r.Park(NumParkCodes, Reader, 5, 0, 70)
				r.Section(Reader, 5, env.ModeHTM, 0, 200)
			},
			want: CSProfile{CS: 5, RW: Reader, Sections: 1, WorkCycles: 200},
		},
		{
			name: "work-clamped",
			record: func(r *Ring) {
				// Waits longer than the section (clock skew between the
				// wait and section timestamps) leave no negative work.
				r.Wait(WaitGL, Writer, 5, 0, 900)
				r.Section(Writer, 5, env.ModeGL, 0, 600)
			},
			want: CSProfile{CS: 5, RW: Writer, Sections: 1, WorkCycles: 0, WaitCycles: waits(WaitGL, 900)},
			text: []string{"gl=900"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pr := NewProfileSink(1)
			p := NewPipeline(1, pr)
			c.record(p.Thread(0))
			p.Flush()
			profs := pr.Profiles()
			if len(profs) != 1 {
				t.Fatalf("profiles = %+v, want one", profs)
			}
			got := profs[0]
			if got != c.want {
				t.Errorf("profile = %+v, want %+v", got, c.want)
			}
			out := pr.String()
			for _, sub := range c.text {
				if !strings.Contains(out, sub) {
					t.Errorf("String() lacks %q:\n%s", sub, out)
				}
			}
		})
	}
}

// TestProfileSinkMergesSlots checks that Profiles sums one section's
// attribution across thread slots, that a slot's pending waits are only
// absorbed by that slot's next section, and the output order: descending
// total cycles, then CS, then side.
func TestProfileSinkMergesSlots(t *testing.T) {
	pr := NewProfileSink(2)
	p := NewPipeline(2, pr)
	r0, r1 := p.Thread(0), p.Thread(1)
	r0.Wait(WaitWSync, Writer, 1, 0, 100) // absorbed by r0's cs1 section, not r1's
	r1.Section(Writer, 1, env.ModeHTM, 0, 300)
	r0.Section(Writer, 1, env.ModeHTM, 0, 400)
	r0.Abort(Writer, 1, env.AbortConflict, 50)
	r1.Section(Reader, 2, env.ModeHTM, 0, 700)
	r0.Section(Reader, 3, env.ModeHTM, 0, 700) // ties cs2 on total; cs2 sorts first
	r1.Section(Writer, 3, env.ModeHTM, 0, 700) // ties; Reader sorts before Writer
	p.Flush()

	profs := pr.Profiles()
	type key struct {
		cs int32
		rw uint8
	}
	var order []key
	for _, c := range profs {
		order = append(order, key{c.CS, c.RW})
	}
	wantOrder := []key{{1, Writer}, {2, Reader}, {3, Reader}, {3, Writer}}
	if len(order) != len(wantOrder) {
		t.Fatalf("profiles = %+v, want keys %v", profs, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", order, wantOrder)
		}
	}
	c := profs[0]
	if c.Sections != 2 || c.Aborts != 1 {
		t.Errorf("cs1 sections/aborts = %d/%d, want 2/1", c.Sections, c.Aborts)
	}
	if c.WaitCycles[WaitWSync] != 100 || c.WorkCycles != 600 {
		t.Errorf("cs1 wsync/work = %d/%d, want 100/600 (300 from slot 1, 400-100 from slot 0)",
			c.WaitCycles[WaitWSync], c.WorkCycles)
	}
}

// TestLabelStrings checks that every event kind, park code and readers
// code has its own non-empty label and that values outside each taxonomy
// fall back to the catch-all label.
func TestLabelStrings(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		label    func(i int) string
		fallback string
	}{
		{"kind", int(numKinds), func(i int) string { return Kind(i).String() }, "none"},
		{"park", int(NumParkCodes), func(i int) string { return ParkCodeString(uint8(i)) }, "unknown"},
		{"readers", int(NumReadersCodes), func(i int) string { return ReadersCodeString(uint8(i)) }, "unknown"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seen := map[string]int{}
			first := 0
			if c.name == "kind" {
				first = int(EvNone) + 1 // EvNone is the zero Kind, labelled by the fallback
			}
			for i := first; i < c.n; i++ {
				s := c.label(i)
				if s == "" || s == c.fallback {
					t.Errorf("%s %d has label %q", c.name, i, s)
				}
				if j, dup := seen[s]; dup {
					t.Errorf("%s %d and %d share label %q", c.name, j, i, s)
				}
				seen[s] = i
			}
			if got := c.label(c.n); got != c.fallback {
				t.Errorf("out-of-range %s = %q, want %q", c.name, got, c.fallback)
			}
		})
	}
}
