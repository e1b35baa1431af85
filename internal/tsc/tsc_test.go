package tsc

import (
	"testing"
	"time"
)

func TestWallClockMonotone(t *testing.T) {
	var c WallClock
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		now := c.Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

func TestWallClockAdvances(t *testing.T) {
	var c WallClock
	start := c.Now()
	time.Sleep(2 * time.Millisecond)
	if elapsed := c.Now() - start; elapsed < uint64(time.Millisecond) {
		t.Fatalf("clock advanced only %d cycles across a 2ms sleep", elapsed)
	}
}

func TestWallClockCopiesShareEpoch(t *testing.T) {
	var a, b WallClock
	x := a.Now()
	y := b.Now()
	if y+uint64(time.Second) < x {
		t.Fatalf("independent WallClock values diverge: %d vs %d", x, y)
	}
}

func TestManualClock(t *testing.T) {
	m := NewManual(100)
	if m.Now() != 100 {
		t.Fatalf("Now = %d, want 100", m.Now())
	}
	m.Advance(50)
	if m.Now() != 150 {
		t.Fatalf("Now = %d after Advance, want 150", m.Now())
	}
	m.Set(200)
	if m.Now() != 200 {
		t.Fatalf("Now = %d after Set, want 200", m.Now())
	}
}

func TestManualSetBackwardsPanics(t *testing.T) {
	m := NewManual(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	m.Set(50)
}

// BenchmarkWallClockNow prices one clock read: the cost every stamp on a
// lock's hot path pays (DESIGN §2, §6).
func BenchmarkWallClockNow(b *testing.B) {
	var c WallClock
	for b.Loop() {
		benchSink = c.Now()
	}
}

var benchSink uint64
