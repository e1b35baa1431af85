package park

import (
	"testing"

	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/tsc"
)

// vclockEnv is a deterministic Env over tsc.Virtual: every Yield costs a
// fixed cycle count and every WaitUntil lands exactly on its deadline, so
// the spin/park threshold tests can pin exact decisions and timestamps.
type vclockEnv struct {
	vc        *tsc.Virtual
	yieldCost uint64
	yields    int
	waits     []uint64 // WaitUntil deadlines, in call order
}

func newVclockEnv(start, yieldCost uint64) *vclockEnv {
	return &vclockEnv{vc: tsc.NewVirtual(start), yieldCost: yieldCost}
}

func (e *vclockEnv) Now() uint64 { return e.vc.Now() }
func (e *vclockEnv) Yield() {
	e.yields++
	e.vc.Advance(e.yieldCost)
}
func (e *vclockEnv) WaitUntil(t uint64) {
	e.waits = append(e.waits, t)
	e.vc.SleepUntil(t)
}

// recParker records Park calls and charges a fixed virtual sleep for each,
// standing in for the waiter table.
type recParker struct {
	vc       *tsc.Virtual
	parkCost uint64
	calls    []memmodel.Addr
}

func (p *recParker) Park(a memmodel.Addr, expected uint64) {
	p.calls = append(p.calls, a)
	p.vc.Advance(p.parkCost)
}
func (p *recParker) Wake(memmodel.Addr) {}

// capSink collects every drained event for assertion.
type capSink struct{ events []obs.Event }

func (c *capSink) Drain(_ int, evs []obs.Event) { c.events = append(c.events, evs...) }

func (c *capSink) byKind(k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, ev := range c.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

const testAddr = memmodel.Addr(64)

// TestPauseSpinsUntilBudgetThenParks pins the budget threshold: with
// Policy{SpinBudget: 3} and no prediction, Pauses 1–3 spin (Yield) and
// Pause 4 parks with the spin flagged as abandoned.
func TestPauseSpinsUntilBudgetThenParks(t *testing.T) {
	e := newVclockEnv(1000, 10)
	p := &recParker{vc: e.vc, parkCost: 500}
	w := Waiter{E: e, P: p, Pol: Policy{SpinBudget: 3, RoundTrip: 1000}}

	for i := 0; i < 3; i++ {
		w.Pause(testAddr, 1, 0)
	}
	if e.yields != 3 || len(p.calls) != 0 {
		t.Fatalf("after 3 pauses: yields=%d parks=%d, want 3 spins and no park", e.yields, len(p.calls))
	}
	if e.Now() != 1000+3*10 {
		t.Fatalf("virtual time %d after 3 yields, want %d", e.Now(), 1000+3*10)
	}

	w.Pause(testAddr, 1, 0) // budget exhausted: must park, spin abandoned
	if e.yields != 3 || len(p.calls) != 1 {
		t.Fatalf("after 4th pause: yields=%d parks=%d, want the 4th to park", e.yields, len(p.calls))
	}
	cycles, parks := w.Parked()
	if cycles != 500 || parks != 1 {
		t.Fatalf("Parked() = (%d, %d), want (500, 1)", cycles, parks)
	}

	// The abandoned spin must surface as a ParkSpinAbandon marker.
	sink := &capSink{}
	pipe := obs.NewPipeline(1, sink)
	w.Report(pipe.Thread(0), obs.WaitGL, obs.Reader, 0)
	pipe.Flush()
	var abandons int
	for _, ev := range sink.byKind(obs.EvPark) {
		if ev.Code == obs.ParkSpinAbandon {
			abandons++
		}
	}
	if abandons != 1 {
		t.Fatalf("got %d spin-abandon events, want 1", abandons)
	}
}

// TestPauseParksImmediatelyOnLongPrediction pins the prediction threshold:
// a predicted remaining wait beyond RoundTrip parks on the very first
// Pause — no spinning, and no abandoned-spin marker (the park was chosen,
// not forced).
func TestPauseParksImmediatelyOnLongPrediction(t *testing.T) {
	e := newVclockEnv(0, 10)
	p := &recParker{vc: e.vc, parkCost: 500}
	w := Waiter{E: e, P: p, Pol: Policy{SpinBudget: 3, RoundTrip: 1000}}

	w.Pause(testAddr, 1, 1001) // remaining > RoundTrip
	if e.yields != 0 || len(p.calls) != 1 {
		t.Fatalf("yields=%d parks=%d, want an immediate park", e.yields, len(p.calls))
	}

	sink := &capSink{}
	pipe := obs.NewPipeline(1, sink)
	w.Report(pipe.Thread(0), obs.WaitGL, obs.Reader, 0)
	pipe.Flush()
	for _, ev := range sink.byKind(obs.EvPark) {
		if ev.Code == obs.ParkSpinAbandon {
			t.Fatal("prediction-driven park must not be flagged spin-abandoned")
		}
	}
}

// TestPauseSpinsOnShortPrediction pins the boundary: remaining == RoundTrip
// is not beyond the round trip, so the waiter keeps spinning within budget.
func TestPauseSpinsOnShortPrediction(t *testing.T) {
	e := newVclockEnv(0, 10)
	p := &recParker{vc: e.vc, parkCost: 500}
	w := Waiter{E: e, P: p, Pol: Policy{SpinBudget: 3, RoundTrip: 1000}}

	for i := 0; i < 3; i++ {
		w.Pause(testAddr, 1, 1000) // == RoundTrip: spin
	}
	if e.yields != 3 || len(p.calls) != 0 {
		t.Fatalf("yields=%d parks=%d, want 3 spins and no park", e.yields, len(p.calls))
	}
}

// TestPessimisticNilParkerBlockModel pins the baseline cost model: without
// a parker, the Pessimistic policy spins PessimisticSpinLimit times and
// then charges exactly PessimisticWakeCycles per blocked re-check — the
// historical pthread-lock sequence, at exact virtual timestamps.
func TestPessimisticNilParkerBlockModel(t *testing.T) {
	e := newVclockEnv(0, 10)
	w := Waiter{E: e, Pol: Pessimistic()}
	if w.CanPark() {
		t.Fatal("CanPark() true with a nil parker")
	}

	for i := 0; i < PessimisticSpinLimit; i++ {
		w.Pause(testAddr, 1, 0)
	}
	if e.yields != PessimisticSpinLimit || len(e.waits) != 0 {
		t.Fatalf("yields=%d blocks=%d during the spin phase, want %d and 0",
			e.yields, len(e.waits), PessimisticSpinLimit)
	}
	spinEnd := uint64(PessimisticSpinLimit) * 10
	if e.Now() != spinEnd {
		t.Fatalf("virtual time %d after spin phase, want %d", e.Now(), spinEnd)
	}

	w.Pause(testAddr, 1, 0) // budget exhausted: modelled kernel block
	if len(e.waits) != 1 || e.waits[0] != spinEnd+PessimisticWakeCycles {
		t.Fatalf("block deadlines %v, want [%d]", e.waits, spinEnd+PessimisticWakeCycles)
	}
	w.Pause(testAddr, 1, 0) // still blocked: another full block, no new spins
	if e.yields != PessimisticSpinLimit || len(e.waits) != 2 {
		t.Fatalf("yields=%d blocks=%d after two blocked re-checks, want %d and 2",
			e.yields, len(e.waits), PessimisticSpinLimit)
	}
	if e.Now() != spinEnd+2*PessimisticWakeCycles {
		t.Fatalf("virtual time %d, want %d", e.Now(), spinEnd+2*PessimisticWakeCycles)
	}
	if c, n := w.Parked(); c != 0 || n != 0 {
		t.Fatalf("Parked() = (%d, %d) for the modelled block, want (0, 0)", c, n)
	}
}

// TestNilParkerZeroBlockSpinsForever pins the historical core behaviour:
// no parker and no block model means every Pause spins, with no charged
// blocks, regardless of budget.
func TestNilParkerZeroBlockSpinsForever(t *testing.T) {
	e := newVclockEnv(0, 10)
	w := Waiter{E: e, Pol: Policy{SpinBudget: 3}}
	for i := 0; i < 100; i++ {
		w.Pause(testAddr, 1, 0)
	}
	if e.yields != 100 || len(e.waits) != 0 {
		t.Fatalf("yields=%d blocks=%d, want pure spinning", e.yields, len(e.waits))
	}
}

// TestReportEmitsNothingWithoutPause: an episode that never waited is
// invisible to the profiler.
func TestReportEmitsNothingWithoutPause(t *testing.T) {
	e := newVclockEnv(0, 10)
	w := Waiter{E: e, Pol: SpinPark()}
	sink := &capSink{}
	pipe := obs.NewPipeline(1, sink)
	w.Report(pipe.Thread(0), obs.WaitGL, obs.Reader, 0)
	pipe.Flush()
	if len(sink.events) != 0 {
		t.Fatalf("got %d events from an episode with no Pause, want 0", len(sink.events))
	}
}

// TestReportSpans pins the emitted telemetry: one EvWait covering first
// Pause to Report, plus one ParkParked span carrying the parked cycles.
func TestReportSpans(t *testing.T) {
	e := newVclockEnv(2000, 10)
	p := &recParker{vc: e.vc, parkCost: 700}
	w := Waiter{E: e, P: p, Pol: Policy{SpinBudget: 1, RoundTrip: 1000}}

	w.Pause(testAddr, 1, 0) // spin (t0 = 2000)
	w.Pause(testAddr, 1, 0) // park for 700
	end := e.Now()

	sink := &capSink{}
	pipe := obs.NewPipeline(1, sink)
	w.Report(pipe.Thread(0), obs.WaitGL, obs.Reader, 7)
	pipe.Flush()

	waitEvs := sink.byKind(obs.EvWait)
	if len(waitEvs) != 1 || waitEvs[0].TS != 2000 || waitEvs[0].TS+waitEvs[0].Dur != end {
		t.Fatalf("EvWait = %+v, want span [2000, %d]", waitEvs, end)
	}
	var parked []obs.Event
	for _, ev := range sink.byKind(obs.EvPark) {
		if ev.Code == obs.ParkParked {
			parked = append(parked, ev)
		}
	}
	if len(parked) != 1 || parked[0].Dur != 700 || parked[0].CS != 7 {
		t.Fatalf("ParkParked events = %+v, want one 700-cycle span for cs 7", parked)
	}
}

// TestPauseSpinPathAllocs: the Pause spin path runs once per failed
// predicate check inside every wait loop; it must not allocate.
func TestPauseSpinPathAllocs(t *testing.T) {
	e := newVclockEnv(0, 1)
	w := Waiter{E: e, Pol: Policy{SpinBudget: 1 << 30}}
	if avg := testing.AllocsPerRun(100, func() { w.Pause(testAddr, 1, 0) }); avg != 0 {
		t.Fatalf("Pause spin path allocates %.1f objects per call, want 0", avg)
	}
}

// TestPauseParkPathAllocs: the Pause park branch — taken once the spin
// budget is spent, or at once when the predicted wait exceeds the park
// round trip — runs inside the same wait loops and must not allocate
// either. The parker is a real Table whose word has already moved, so
// each Park returns after its re-check.
func TestPauseParkPathAllocs(t *testing.T) {
	tab, words := newTestTable()
	words.store(testAddr, 7)
	for _, tc := range []struct {
		name      string
		pol       Policy
		remaining uint64
	}{
		{"SpinBudgetSpent", Policy{SpinBudget: 0, RoundTrip: 1000}, 0},
		{"PredictedLong", Policy{SpinBudget: 1 << 30, RoundTrip: 1000}, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := Waiter{E: newVclockEnv(0, 1), P: tab, Pol: tc.pol}
			if avg := testing.AllocsPerRun(100, func() { w.Pause(testAddr, 3, tc.remaining) }); avg != 0 {
				t.Errorf("Pause park branch allocates %.1f objects per call, want 0", avg)
			}
			if _, parks := w.Parked(); parks < 100 {
				t.Errorf("Pause parked %d times in 101 calls", parks)
			}
		})
	}
}
