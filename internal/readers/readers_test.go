package readers

import (
	"sync"
	"testing"

	"sprwl/internal/memmodel"
	"sprwl/internal/snzi"
)

// memSpace is a minimal concurrent Memory for tests: a flat word array
// with mutex-serialized accesses (the contract only needs atomicity per
// word, which this over-provides).
type memSpace struct {
	mu    sync.Mutex
	words []uint64
}

func newMemSpace(words int) *memSpace { return &memSpace{words: make([]uint64, words)} }

func (m *memSpace) Load(a memmodel.Addr) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.words[a]
}

func (m *memSpace) Store(a memmodel.Addr, v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.words[a] = v
}

func (m *memSpace) CAS(a memmodel.Addr, old, new uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.words[a] != old {
		return false
	}
	m.words[a] = new
	return true
}

func (m *memSpace) Add(a memmodel.Addr, d uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.words[a] += d
	return m.words[a]
}

func (m *memSpace) Yield() {}

// txView adapts memSpace to TxMemory.
type txView struct{ m *memSpace }

func (t txView) Load(a memmodel.Addr) uint64 { return t.m.Load(a) }

// TestIndicatorContract: for every backend, a reader is visible to Check
// exactly between Arrive and Depart, and Drain returns once all readers
// departed.
func TestIndicatorContract(t *testing.T) {
	for _, name := range []string{"flags", "snzi", "bravo"} {
		t.Run(name, func(t *testing.T) {
			m := newMemSpace(1 << 12)
			var ind Indicator
			switch name {
			case "flags":
				ind = NewFlags(m, 0, 8)
			case "snzi":
				ind = NewSNZI(snzi.New(m, 0, 8))
			case "bravo":
				ind = NewBravo(m, 64, 8)
			}
			tx := txView{m}
			if ind.Check(tx, -1) {
				t.Fatal("empty indicator reports a reader")
			}
			tok1 := ind.Arrive(1)
			tok2 := ind.Arrive(2)
			if !ind.Check(tx, -1) {
				t.Fatal("two arrived readers invisible to Check")
			}
			ind.Depart(tok1)
			if !ind.Check(tx, -1) {
				t.Fatal("one remaining reader invisible to Check")
			}
			ind.Depart(tok2)
			if ind.Check(tx, -1) {
				t.Fatal("reader still visible after all departed")
			}
			ind.Drain(m) // must not block with no readers
		})
	}
}

// TestFlagsSkipsWriterSlot: the skip parameter hides exactly one slot,
// which is how a writer sharing the state array ignores its own entry.
func TestFlagsSkipsWriterSlot(t *testing.T) {
	m := newMemSpace(64)
	f := NewFlags(m, 0, 8)
	tx := txView{m}
	tok := f.Arrive(3)
	if f.Check(tx, 3) {
		t.Fatal("Check saw the skipped slot")
	}
	if !f.Check(tx, 2) {
		t.Fatal("Check missed a reader in a non-skipped slot")
	}
	f.Depart(tok)
}

// TestBravoCollisionFallback: once every probed slot is taken, further
// arrivals publish on the overflow counter and remain visible.
func TestBravoCollisionFallback(t *testing.T) {
	m := newMemSpace(1 << 12)
	b := NewBravo(m, 0, 4)
	tx := txView{m}

	// Fill the entire table so any further probe sequence must collide.
	var toks []uint64
	for hint := uint64(0); len(toks) < b.Slots(); hint++ {
		if tok := b.Arrive(hint); tok != OverflowToken {
			toks = append(toks, tok)
		} else {
			b.Depart(tok)
		}
	}
	over := b.Arrive(99)
	if over != OverflowToken {
		t.Fatalf("arrival into a full table got slot token %d, want overflow", over)
	}
	if b.Collisions() == 0 {
		t.Fatal("collision not counted")
	}
	if !b.Check(tx, -1) {
		t.Fatal("overflow reader invisible")
	}
	for _, tok := range toks {
		b.Depart(tok)
	}
	if !b.Check(tx, -1) {
		t.Fatal("overflow reader invisible after slot readers departed")
	}
	b.Depart(over)
	if b.Check(tx, -1) {
		t.Fatal("indicator not empty after all departs")
	}
}

// TestBravoRevocation: revoking the bias routes new arrivals to the
// overflow counter, bumps the epoch, and never hides an already-arrived
// reader; Restore re-arms the fast path.
func TestBravoRevocation(t *testing.T) {
	m := newMemSpace(1 << 12)
	b := NewBravo(m, 0, 8)
	tx := txView{m}

	slotTok := b.Arrive(7)
	if slotTok == OverflowToken {
		t.Fatal("biased arrival into an empty table overflowed")
	}
	b.Revoke()
	if b.Biased() {
		t.Fatal("bias still armed after Revoke")
	}
	if b.Epoch() != 1 || b.Revocations() != 1 {
		t.Fatalf("epoch/revocations = %d/%d, want 1/1", b.Epoch(), b.Revocations())
	}
	revTok := b.Arrive(8)
	if revTok != OverflowToken {
		t.Fatal("arrival under revoked bias claimed a table slot")
	}
	// Both the pre-revocation slot reader and the overflow reader are
	// visible — revocation must not hide anyone.
	if !b.Check(tx, -1) {
		t.Fatal("readers invisible under revocation")
	}
	b.Depart(slotTok)
	if !b.Check(tx, -1) {
		t.Fatal("overflow reader invisible under revocation")
	}
	b.Depart(revTok)
	if b.Check(tx, -1) {
		t.Fatal("indicator not empty")
	}
	b.Restore()
	if !b.Biased() {
		t.Fatal("bias not re-armed by Restore")
	}
	if tok := b.Arrive(9); tok == OverflowToken {
		t.Fatal("restored bias did not re-enable the table fast path")
	} else {
		b.Depart(tok)
	}
}

// TestBravoConcurrentArriveDepart: hammer the table from many goroutines;
// it must end empty and never double-claim a slot (each claimed token is
// unique among concurrently held ones by construction of CAS, which this
// exercises under race).
func TestBravoConcurrentArriveDepart(t *testing.T) {
	m := newMemSpace(1 << 12)
	b := NewBravo(m, 0, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := Mix64(seed)
			for i := 0; i < 500; i++ {
				tok := b.Arrive(h)
				h = Mix64(h)
				b.Depart(tok)
			}
		}(uint64(g))
	}
	wg.Wait()
	if b.Check(txView{m}, -1) {
		t.Fatal("indicator not empty after all goroutines departed")
	}
}

// TestClampBravoSlots pins the sizing envelope.
func TestClampBravoSlots(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32}, {1000, 256},
	} {
		if got := ClampBravoSlots(tc.in); got != tc.want {
			t.Errorf("ClampBravoSlots(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if s := DefaultBravoSlots(); s < 4 || s > 256 || s&(s-1) != 0 {
		t.Fatalf("DefaultBravoSlots() = %d, want a power of two in [4,256]", s)
	}
}

// TestBravoSlowPathsDoNotAllocate is the BRAVO allocation table: the
// arrivals that miss the table — every probe collides, or a fallback
// writer has revoked the bias — and their overflow departs run inside
// reader sections and must not heap-allocate any more than the slot path.
// Each row also checks that its arrivals really took the overflow counter.
func TestBravoSlowPathsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(b *Bravo)
	}{
		{"Collision", func(b *Bravo) {
			// Fill the table so any probe sequence collides.
			for hint, claimed := uint64(0), 0; claimed < b.Slots(); hint++ {
				if tok := b.Arrive(hint); tok != OverflowToken {
					claimed++
				} else {
					b.Depart(tok)
				}
			}
		}},
		{"Revoked", func(b *Bravo) { b.Revoke() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBravo(newMemSpace(1<<12), 0, 4)
			tc.setup(b)
			overflowed := true
			if avg := testing.AllocsPerRun(100, func() {
				tok := b.Arrive(99)
				overflowed = overflowed && tok == OverflowToken
				b.Depart(tok)
			}); avg != 0 {
				t.Errorf("Arrive+Depart allocated %.2f objects per run, want 0", avg)
			}
			if !overflowed {
				t.Error("an arrival claimed a table slot instead of the overflow counter")
			}
		})
	}
}
