package obs

import (
	"fmt"
	"sort"
	"strings"
)

// ProfileSink is a lightweight profiler that attributes cycles to
// wait-vs-work per critical-section ID: for every completed section it
// splits the end-to-end latency into the scheduling waits that preceded it
// (rsync, wsync, fallback spins, drains — each attributed to its reason)
// and the remainder, which is work (body execution plus retry overhead).
// This answers the tuning question the paper's §3.2 schemes pose — where
// do threads actually spend their time under a given policy?
type ProfileSink struct {
	slots []profSlot
}

// profSlot is one thread's accumulation state. Waits are buffered until
// the section that absorbs them completes, mirroring record order: a
// section's waits always precede its EvSection in the ring.
type profSlot struct {
	pendingWait    [NumWaitReasons]uint64
	pendingParked  uint64
	pendingParks   uint64
	pendingAbandon uint64
	byKey          map[profKey]*CSProfile
}

func (s *profSlot) clearPending() {
	s.pendingWait = [NumWaitReasons]uint64{}
	s.pendingParked, s.pendingParks, s.pendingAbandon = 0, 0, 0
}

type profKey struct {
	cs int32
	rw uint8
}

// CSProfile is the merged wait/work attribution for one critical section.
type CSProfile struct {
	// CS is the critical-section ID; RW its side.
	CS int32
	RW uint8
	// Sections counts attributed completions; Aborts counts aborted
	// hardware attempts.
	Sections uint64
	Aborts   uint64
	// WorkCycles is section latency not attributed to any wait.
	WorkCycles uint64
	// WaitCycles attributes stall time by reason (index with Wait*).
	WaitCycles [NumWaitReasons]uint64
	// ParkedCycles is the subset of WaitCycles spent parked (asleep)
	// rather than spinning; Parks counts park episodes, SpinAbandons
	// counts waits whose spin budget was exhausted before parking, and
	// Wakes counts wakes issued by this section's release paths.
	ParkedCycles uint64
	Parks        uint64
	SpinAbandons uint64
	Wakes        uint64
}

// TotalWait sums the per-reason wait cycles.
func (p *CSProfile) TotalWait() uint64 {
	var n uint64
	for _, w := range p.WaitCycles {
		n += w
	}
	return n
}

// NewProfileSink builds a profile sink for n thread slots.
func NewProfileSink(n int) *ProfileSink {
	if n < 1 {
		n = 1
	}
	return &ProfileSink{slots: make([]profSlot, n)}
}

// Drain implements Sink.
func (p *ProfileSink) Drain(slot int, events []Event) {
	if slot < 0 || slot >= len(p.slots) {
		return
	}
	s := &p.slots[slot]
	if s.byKey == nil {
		s.byKey = make(map[profKey]*CSProfile)
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case EvWait:
			if ev.Code < NumWaitReasons {
				s.pendingWait[ev.Code] += ev.Dur
			}
		case EvPark:
			switch ev.Code {
			case ParkParked:
				s.pendingParked += ev.Dur
				s.pendingParks++
			case ParkSpinAbandon:
				s.pendingAbandon++
			case ParkWake:
				// Wakes are issued on release paths, after the section
				// completed; attribute them directly.
				s.profile(ev.CS, ev.RW).Wakes++
			}
		case EvAbort:
			s.profile(ev.CS, ev.RW).Aborts++
		case EvSection:
			c := s.profile(ev.CS, ev.RW)
			c.Sections++
			var waited uint64
			for r, w := range s.pendingWait {
				c.WaitCycles[r] += w
				waited += w
			}
			c.ParkedCycles += s.pendingParked
			c.Parks += s.pendingParks
			c.SpinAbandons += s.pendingAbandon
			s.clearPending()
			if ev.Dur > waited {
				c.WorkCycles += ev.Dur - waited
			}
		}
	}
}

func (s *profSlot) profile(cs int32, rw uint8) *CSProfile {
	k := profKey{cs: cs, rw: rw}
	c := s.byKey[k]
	if c == nil {
		c = &CSProfile{CS: cs, RW: rw}
		s.byKey[k] = c
	}
	return c
}

// Profiles merges all slots and returns the per-CS attribution, sorted by
// descending total cycles.
func (p *ProfileSink) Profiles() []CSProfile {
	merged := make(map[profKey]*CSProfile)
	for i := range p.slots {
		for k, c := range p.slots[i].byKey {
			m := merged[k]
			if m == nil {
				m = &CSProfile{CS: c.CS, RW: c.RW}
				merged[k] = m
			}
			m.Sections += c.Sections
			m.Aborts += c.Aborts
			m.WorkCycles += c.WorkCycles
			for r := range c.WaitCycles {
				m.WaitCycles[r] += c.WaitCycles[r]
			}
			m.ParkedCycles += c.ParkedCycles
			m.Parks += c.Parks
			m.SpinAbandons += c.SpinAbandons
			m.Wakes += c.Wakes
		}
	}
	out := make([]CSProfile, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].WorkCycles + out[i].TotalWait()
		tj := out[j].WorkCycles + out[j].TotalWait()
		if ti != tj {
			return ti > tj
		}
		if out[i].CS != out[j].CS {
			return out[i].CS < out[j].CS
		}
		return out[i].RW < out[j].RW
	})
	return out
}

// String renders the attribution as an aligned table.
func (p *ProfileSink) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-6s %10s %8s %14s %14s  %s\n",
		"cs", "side", "sections", "aborts", "work(cyc)", "wait(cyc)", "wait breakdown")
	for _, c := range p.Profiles() {
		side := "read"
		if c.RW == Writer {
			side = "write"
		}
		var parts []string
		for r := uint8(0); r < NumWaitReasons; r++ {
			if w := c.WaitCycles[r]; w > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", WaitReasonString(r), w))
			}
		}
		if c.ParkedCycles > 0 || c.Parks > 0 {
			parts = append(parts, fmt.Sprintf("parked=%d/%d", c.ParkedCycles, c.Parks))
		}
		if c.SpinAbandons > 0 {
			parts = append(parts, fmt.Sprintf("abandon=%d", c.SpinAbandons))
		}
		if c.Wakes > 0 {
			parts = append(parts, fmt.Sprintf("wakes=%d", c.Wakes))
		}
		fmt.Fprintf(&b, "%-6d %-6s %10d %8d %14d %14d  %s\n",
			c.CS, side, c.Sections, c.Aborts, c.WorkCycles, c.TotalWait(), strings.Join(parts, " "))
	}
	return b.String()
}
