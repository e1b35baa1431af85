package interleave

import "testing"

// TestConfigsVerifyClean is the headline property: every shipped
// configuration of the real, extracted protocol verifies mutual
// exclusion, section-body integrity, quiescence, and
// lost-wakeup/deadlock freedom, with the search completing inside
// CI-short bounds. On the flagship three-thread config the sleep-set
// reduction must also prune: a reduction that stops pruning silently
// turns CI-short bounds into a state explosion.
func TestConfigsVerifyClean(t *testing.T) {
	ex := testExtractor(t)
	for _, name := range ConfigNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := BuildConfig(ex, name)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res := RunModel(m, ExploreOpts{})
			if !res.Complete {
				t.Fatalf("exploration incomplete (states=%d, depth=%d)", res.States, res.MaxDepth)
			}
			if res.Violation != nil {
				t.Errorf("%s\n%s", res.Violation.Msg, RenderTrace(res.Violation))
			}
			if res.States == 0 || res.Transitions == 0 {
				t.Errorf("empty exploration (states=%d transitions=%d)", res.States, res.Transitions)
			}
			if name == "rsync-2r1w" && res.Pruned == 0 {
				t.Error("sleep-set reduction pruned nothing on a three-thread config")
			}
		})
	}
}

// TestOnlyShardGenIsPlain guards the precondition that lets the machine
// run sequential consistency alone (DESIGN §14). Go atomics are
// sequentially consistent, and a data-race-free Go program behaves as if
// sequentially consistent, so a weaker memory model can only matter for a
// plain (non-atomic) shared access. The one plain cell the protocol has
// is a park shard's gen, which Park and Wake touch only under the shard's
// mutex. A plain load or store of any other cell in any config fails
// here: it is a plain shared cell, and a store-buffer semantics would
// have to come back to check it.
func TestOnlyShardGenIsPlain(t *testing.T) {
	ex := testExtractor(t)
	genOff := uint64(shardLayout()["gen"].off)
	// A shard's gen is addressed either as a constant, or as
	// parkBase + i*shardCells + genOff for a shard index i computed at
	// run time (the hashed shard of a dynamic word).
	isShardGen := func(loc *Expr) bool {
		if c, ok := loc.ConstOf(); ok {
			return c >= parkBase && c < parkBase+64*shardCells && (c-parkBase)%shardCells == genOff
		}
		if loc.Kind != EBin || loc.Op != OpAdd || loc.L.Kind != EBin || loc.L.Op != OpAdd {
			return false
		}
		off, ok1 := loc.R.ConstOf()
		base, ok2 := loc.L.L.ConstOf()
		idx := loc.L.R
		if !ok1 || !ok2 || idx.Kind != EBin || idx.Op != OpMul {
			return false
		}
		stride, ok3 := idx.R.ConstOf()
		return ok3 && base == parkBase && stride == shardCells && off == genOff
	}
	for _, name := range ConfigNames() {
		t.Run(name, func(t *testing.T) {
			m, err := BuildConfig(ex, name)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			plain := 0
			for _, th := range m.Threads {
				for pc, in := range th.Prog.Code {
					if (in.Op != OpLoad && in.Op != OpStore) || in.Atomic {
						continue
					}
					plain++
					if !isShardGen(in.Loc) {
						t.Errorf("thread %s pc %d: plain %s of %s (%s, %s); only a park shard's gen may be plain",
							th.Name, pc, in.Op.Name(), in.Loc, in.Site, in.Pos)
					}
				}
			}
			if name == "park-handshake" && plain == 0 {
				t.Error("no plain access at all; the extractor no longer marks shard gen as plain")
			}
		})
	}
}

// TestUnknownConfig: a typo'd -config fails loudly, listing the options.
func TestUnknownConfig(t *testing.T) {
	ex := testExtractor(t)
	if _, err := BuildConfig(ex, "no-such-config"); err == nil {
		t.Fatal("unknown config built successfully")
	}
}
