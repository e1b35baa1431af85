// Options-matrix conformance: every valid core.Options combination must
// pass a short round of the contract suite. This is the table-driven
// backstop for option interactions no named preset exercises (e.g.
// VersionedSGL × BRAVO × WriterSync).
package rwlocktest

import (
	"fmt"
	"testing"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

// backendAxis enumerates the reader-tracking choices.
var backendAxis = []struct {
	name  string
	apply func(*core.Options)
}{
	{"flags", func(*core.Options) {}},
	{"snzi", func(o *core.Options) { o.Tracking = core.TrackSNZI }},
	{"bravo", func(o *core.Options) { o.Tracking = core.TrackBravo; o.BravoSlots = 8 }},
	{"auto", func(o *core.Options) { o.Tracking = core.TrackAuto }},
}

// capacityAxis enumerates the HTM spaces each combination runs in. The
// two-line bound is below the footprint of every section in the suite
// (the body's data plus the lock's subscription line), so each hardware
// attempt aborts on capacity and every combination also completes its
// sections on the fallback paths: the SGL for writers and the
// uninstrumented path for readers.
var capacityAxis = []struct {
	suffix string
	htm    htm.Config
}{
	{"", htm.Config{}},
	{"_cap=2", htm.Config{ReadCapacityLines: 2, WriteCapacityLines: 2}},
}

// validOptionCombos enumerates every semantically valid Options value over
// the boolean axes: JoinWaiters is a refinement of ReaderSync (meaningless
// without the state-array scan), and the four tracking backends are
// mutually exclusive by construction.
func validOptionCombos() []struct {
	name string
	opts core.Options
} {
	var combos []struct {
		name string
		opts core.Options
	}
	for _, rs := range []bool{false, true} {
		jwAxis := []bool{false}
		if rs {
			jwAxis = []bool{false, true}
		}
		for _, jw := range jwAxis {
			for _, ws := range []bool{false, true} {
				for _, htmFirst := range []bool{false, true} {
					for _, vsgl := range []bool{false, true} {
						for _, be := range backendAxis {
							o := core.Options{
								ReaderSync:     rs,
								JoinWaiters:    jw,
								WriterSync:     ws,
								ReaderHTMFirst: htmFirst,
								VersionedSGL:   vsgl,
							}
							be.apply(&o)
							name := fmt.Sprintf("%s_rs=%t_jw=%t_ws=%t_htm=%t_vsgl=%t",
								be.name, rs, jw, ws, htmFirst, vsgl)
							combos = append(combos, struct {
								name string
								opts core.Options
							}{name, o})
						}
					}
				}
			}
		}
	}
	return combos
}

// TestOptionsMatrix runs the safety core of the contract suite (mutual
// exclusion, reader isolation, exactly-once effects) over every valid
// options combination with short rounds, once in an unbounded HTM space
// and once in one too small for any section to commit in hardware.
func TestOptionsMatrix(t *testing.T) {
	combos := validOptionCombos()
	rounds := 12
	if testing.Short() {
		rounds = 6
	}
	for _, space := range capacityAxis {
		cfg := Config{Threads: 4, Rounds: rounds, HTMConfig: space.htm}
		for _, c := range combos {
			opts := c.opts
			t.Run(c.name+space.suffix, func(t *testing.T) {
				f := func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
					return core.MustNew(e, ar, threads, 4, opts, nil)
				}
				writerMutualExclusion(t, f, cfg)
				readerIsolation(t, f, cfg)
				effectsOnce(t, f, cfg)
			})
		}
	}
}
