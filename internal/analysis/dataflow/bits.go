// Package dataflow provides the generic worklist solver the flow-sensitive
// analyzers (fenceorder, doomedread) run over cfg graphs, plus the two
// derived analyses they share: reaching definitions and a conservative
// captured-variable alias lattice. Facts are fixed-width bitsets over a
// caller-chosen event universe; the solver supports must/may × forward/
// backward directions with the guarded-event semantics the cfg package's
// Walk establishes (an event under a short-circuit, inside an invoked
// literal, or in the deferred block may not execute: it cannot establish a
// must-fact and cannot kill a may-fact).
package dataflow

// Bits is a fixed-width bitset. The zero value is unusable; allocate with
// NewBits.
type Bits []uint64

// NewBits returns an empty bitset able to hold n bits.
func NewBits(n int) Bits {
	return make(Bits, (n+63)/64)
}

// Set sets bit i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Has reports bit i.
func (b Bits) Has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Fill sets the first n bits (the must-analysis top element).
func (b Bits) Fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if n%64 != 0 {
		b[len(b)-1] = (1 << (n % 64)) - 1
	}
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// And intersects o into b, reporting whether b changed.
func (b Bits) And(o Bits) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// Or unions o into b, reporting whether b changed.
func (b Bits) Or(o Bits) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// Equal reports whether b and o hold the same bits.
func (b Bits) Equal(o Bits) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
