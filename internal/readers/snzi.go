package readers

import "sprwl/internal/snzi"

// SNZI adapts a Scalable NonZero Indicator (package snzi) to the Indicator
// contract. Every tree update is a CAS, so arbitrary concurrent hints are
// safe and the backend can hold dynamic (slot-less) readers; the hint only
// selects which leaf absorbs the arrival. The token is the hint itself:
// Depart must walk up from the same leaf Arrive charged.
type SNZI struct {
	z *snzi.SNZI
}

var _ Indicator = SNZI{}

// NewSNZI wraps an existing indicator tree.
func NewSNZI(z *snzi.SNZI) SNZI { return SNZI{z: z} }

// leaf maps an arbitrary hint onto a leaf index the tree accepts.
func (s SNZI) leaf(hint uint64) int { return int(hint % uint64(s.z.Leaves())) }

// Arrive implements Indicator.
func (s SNZI) Arrive(hint uint64) uint64 {
	s.z.Arrive(s.leaf(hint))
	return hint
}

// Depart implements Indicator.
func (s SNZI) Depart(token uint64) {
	s.z.Depart(s.leaf(token))
}

// Check implements Indicator: a single-line read of the indicator word,
// the whole point of the SNZI trade-off (§3.4). skip is ignored.
func (s SNZI) Check(tx TxMemory, _ int) bool {
	return tx.Load(s.z.IndicatorAddr()) != 0
}

// Drain implements Indicator.
func (s SNZI) Drain(y Yielder) {
	for s.z.Query() {
		y.Yield()
	}
}
