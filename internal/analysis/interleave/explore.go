package interleave

import "fmt"

// The explorer enumerates interleavings with sleep-set partial-order
// reduction plus visited-state hashing:
//
//   - Sleep sets: after exploring transition t from state s, t is put to
//     sleep for s's remaining branches; a successor inherits the sleeping
//     transitions that are independent of the step taken. A sleeping
//     transition is provably covered by an already-explored ordering, so
//     scheduling it again is pure commutation noise.
//   - Visited states store the sleep sets they were explored with; a
//     revisit whose sleep set is a superset of a stored one cannot reach
//     anything new and is pruned.
//
// Dependence is evaluated per-state from exact footprints (address
// expressions are side-effect-free), so dynamically-addressed cells — the
// hashed park shards — reduce as well as statically-bound ones.

// ExploreOpts bounds one exploration.
type ExploreOpts struct {
	// MaxStates aborts the search (Complete=false) after this many
	// distinct states; 0 means DefaultMaxStates.
	MaxStates int
}

// Exploration bounds: sized so every shipped config finishes in CI-short
// time. DefaultMaxDepth bounds the schedule length.
const (
	DefaultMaxStates = 2_000_000
	DefaultMaxDepth  = 4096
)

// Violation is a checker finding with its counterexample schedule.
type Violation struct {
	Kind      ViolationKind `json:"kind"`
	Msg       string        `json:"msg"`
	Trace     []TraceStep   `json:"trace"`
	Minimized bool          `json:"minimized"`
}

// RunResult is the outcome of exploring one model.
type RunResult struct {
	Model       string     `json:"model"`
	Violation   *Violation `json:"violation,omitempty"`
	States      uint64     `json:"states"`
	Transitions uint64     `json:"transitions"`
	Pruned      uint64     `json:"pruned"`
	MaxDepth    int        `json:"max_depth"`
	Complete    bool       `json:"complete"`
}

// RunModel explores m exhaustively (within bounds).
func RunModel(m *Model, opts ExploreOpts) RunResult {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	e := &explorer{
		mc:      newMachine(m),
		opts:    opts,
		visited: map[[2]uint64][]uint64{},
	}
	res := RunResult{Model: m.Name, Complete: true}

	init, viol := e.mc.initState()
	if viol != nil {
		res.Violation = &Violation{Kind: viol.kind, Msg: viol.msg}
		return res
	}
	e.dfs(init, 0, 0)

	res.States = e.states
	res.Transitions = e.transitions
	res.Pruned = e.pruned
	res.MaxDepth = e.deepest
	res.Complete = !e.bailed
	if e.viol != nil {
		v := &Violation{Kind: e.viol.kind, Msg: e.viol.msg, Trace: e.trace}
		if mv, short, ok := e.minimize(v.Kind, len(v.Trace)); ok {
			// The shortest witness of the same kind need not be the same
			// state: report its own message with its trace.
			v.Msg = mv.msg
			v.Trace = short
			v.Minimized = true
		}
		res.Violation = v
	}
	return res
}

type explorer struct {
	mc   *machine
	opts ExploreOpts

	// visited maps a state hash to the sleep sets it was explored with.
	visited map[[2]uint64][]uint64

	states      uint64
	transitions uint64
	pruned      uint64
	deepest     int
	bailed      bool

	stack []TraceStep
	viol  *stepViol
	trace []TraceStep
}

func trBit(t transition) uint64 { return 1 << t.id() }

func (e *explorer) record(v *stepViol) {
	if e.viol != nil {
		return
	}
	e.viol = v
	e.trace = append([]TraceStep(nil), e.stack...)
}

// dfs explores s; sleep is the inherited sleep set. Returns true to abort
// the whole search (violation found or bounds hit).
func (e *explorer) dfs(s *machState, sleep uint64, depth int) bool {
	if depth > e.deepest {
		e.deepest = depth
	}
	if depth >= DefaultMaxDepth {
		e.bailed = true
		return false
	}
	e.states++
	if e.states > uint64(e.opts.MaxStates) {
		e.bailed = true
		return true
	}

	en := e.mc.enabled(s)
	if len(en) == 0 {
		allHalted := true
		for i := range s.thr {
			if s.thr[i].status != tsHalted {
				allHalted = false
				break
			}
		}
		var v *stepViol
		if allHalted {
			v = e.mc.checkTerminal(s)
		} else {
			v = e.mc.classifyStuck(s)
		}
		if v != nil {
			e.record(v)
			return true
		}
		return false
	}

	// Drop sleeping transitions that are no longer enabled, then consult
	// the visited table.
	var enMask uint64
	for _, tr := range en {
		enMask |= trBit(tr)
	}
	sleep &= enMask
	h := s.hash()
	if masks, ok := e.visited[h]; ok {
		for _, m := range masks {
			if m&sleep == m { // stored sleep ⊆ current: already covered
				e.pruned++
				return false
			}
		}
	}
	e.visited[h] = append(e.visited[h], sleep)

	fps := make([][]access, len(en))
	for i, tr := range en {
		fps[i] = e.mc.footprint(s, tr)
	}

	cur := sleep
	for i, tr := range en {
		if cur&trBit(tr) != 0 {
			e.pruned++
			continue
		}
		succ, viol, ts := e.mc.apply(s, tr)
		e.transitions++
		e.stack = append(e.stack, ts)
		if viol != nil {
			e.record(viol)
			e.stack = e.stack[:len(e.stack)-1]
			return true
		}
		// Successor inherits the sleeping transitions independent of tr
		// (same-thread transitions are always dependent).
		var next uint64
		for j, other := range en {
			if cur&trBit(other) == 0 || other.thread == tr.thread {
				continue
			}
			if !dependent(fps[i], fps[j]) {
				next |= trBit(other)
			}
		}
		if e.dfs(succ, next, depth+1) {
			e.stack = e.stack[:len(e.stack)-1]
			return true
		}
		e.stack = e.stack[:len(e.stack)-1]
		cur |= trBit(tr)
	}
	return false
}

// minimize re-searches breadth-first (no reduction, plain visited-state
// hashing) for the shortest schedule reaching a violation of the same
// kind, bounded by the DFS witness length.
func (e *explorer) minimize(kind ViolationKind, bound int) (*stepViol, []TraceStep, bool) {
	type node struct {
		s      *machState
		parent int
		step   TraceStep
	}
	init, viol := e.mc.initState()
	if viol != nil {
		return nil, nil, false
	}
	nodes := []node{{s: init, parent: -1}}
	seen := map[[2]uint64]bool{init.hash(): true}
	frontier := []int{0}
	budget := e.opts.MaxStates

	traceOf := func(idx int, last TraceStep) []TraceStep {
		var rev []TraceStep
		rev = append(rev, last)
		for i := idx; i > 0; i = nodes[i].parent {
			rev = append(rev, nodes[i].step)
		}
		out := make([]TraceStep, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			out = append(out, rev[i])
		}
		return out
	}

	// depth == bound still runs its leaf checks: a stuck state at exactly
	// the DFS witness depth is a valid equal-length witness.
	for depth := 0; depth <= bound && len(frontier) > 0; depth++ {
		var next []int
		for _, idx := range frontier {
			s := nodes[idx].s
			en := e.mc.enabled(s)
			if len(en) == 0 {
				allHalted := true
				for i := range s.thr {
					if s.thr[i].status != tsHalted {
						allHalted = false
						break
					}
				}
				var v *stepViol
				if allHalted {
					v = e.mc.checkTerminal(s)
				} else {
					v = e.mc.classifyStuck(s)
				}
				if v != nil && v.kind == kind {
					// Leaf violations carry no extra step; trace is the
					// path to this node.
					if idx == 0 {
						return nil, nil, false
					}
					tr := traceOf(nodes[idx].parent, nodes[idx].step)
					return v, tr, true
				}
				continue
			}
			if depth == bound {
				// Expansions from here would exceed the DFS witness
				// length; this depth exists only for its leaf checks.
				continue
			}
			for _, tr := range en {
				if budget--; budget <= 0 {
					return nil, nil, false
				}
				succ, v, ts := e.mc.apply(s, tr)
				if v != nil && v.kind == kind {
					return v, traceOf(idx, ts), true
				}
				h := succ.hash()
				if seen[h] {
					continue
				}
				seen[h] = true
				nodes = append(nodes, node{s: succ, parent: idx, step: ts})
				next = append(next, len(nodes)-1)
			}
		}
		frontier = next
	}
	return nil, nil, false
}

// RenderTrace formats a counterexample for the human-readable stream and
// the trace artifact.
func RenderTrace(v *Violation) string {
	if v == nil {
		return ""
	}
	out := fmt.Sprintf("violation: %s\n  %s\n", v.Kind, v.Msg)
	for i, ts := range v.Trace {
		pos := ts.Pos
		if pos == "" {
			pos = "-"
		}
		out += fmt.Sprintf("  %3d  %-4s %-40s %s\n", i+1, ts.Name, ts.Desc, pos)
	}
	return out
}
