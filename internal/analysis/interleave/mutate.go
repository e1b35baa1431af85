package interleave

import (
	"fmt"
	"sort"
)

// Mutation mode: each entry seeds one protocol bug known from the
// paper's correctness argument, and the registry records the verdict
// the checker must reach under each semantics. A mutation the checker
// misses — or a "clean" semantics it falsely flags — fails the
// self-test. This is the falsifiability check for the whole pipeline:
// extraction, semantics, reduction, and checkers together must be
// strong enough to see the canonical bugs.

// Mutation is one seeded protocol bug.
type Mutation struct {
	Name   string
	Config string
	Desc   string
	// Expect maps each semantics to the violation kind the checker must
	// report; a semantics absent from the map must verify clean.
	Expect map[Sem]ViolationKind

	tm threadMut
}

var mutations = []Mutation{
	{
		Name:   "drop-wake",
		Config: "rsync-2r1w",
		Desc:   "delete the writer's retire-time Wake (finishWrite): a reader parked on the writer's state word sleeps forever (DESIGN §10)",
		Expect: map[Sem]ViolationKind{SemSC: ViolLostWake, SemTSO: ViolLostWake},
		tm:     threadMut{applyTo: "W", skipCalls: []string{"finishWrite>Hub.Wake"}},
	},
	{
		Name:   "drop-reg-wake",
		Config: "vsgl-1r1w",
		Desc:   "delete the reader's wake after its §3.3 registration store: the writer parks on the registration word while the reader spins on the lock word",
		Expect: map[Sem]ViolationKind{SemSC: ViolLostWake, SemTSO: ViolLostWake},
		tm:     threadMut{applyTo: "R", skipCalls: []string{"flagReaderAndSyncGL>Hub.Wake"}},
	},
	{
		Name:   "drop-retire-wake",
		Config: "vsgl-1r1w",
		Desc:   "delete flagReader's wake after retiring the §3.3 registration: the writer parked on the registration word sleeps forever",
		Expect: map[Sem]ViolationKind{SemSC: ViolLostWake, SemTSO: ViolLostWake},
		tm:     threadMut{applyTo: "R", skipCalls: []string{"flagReader>Hub.Wake"}},
	},
	{
		Name:   "handshake-drop-wake",
		Config: "park-handshake",
		Desc:   "delete the waker's Table.Wake after the phase store: the parked waiter is never broadcast",
		Expect: map[Sem]ViolationKind{SemSC: ViolLostWake, SemTSO: ViolLostWake},
		tm:     threadMut{applyTo: "waker", skipCalls: []string{"Table.Wake"}},
	},
	{
		Name:   "reorder-flag-check",
		Config: "mutex-2r1w",
		Desc:   "swap the reader's flag store past the fallback-lock check: check-then-flag races the writer's lock-then-drain",
		Expect: map[Sem]ViolationKind{SemSC: ViolMutex, SemTSO: ViolMutex},
		tm:     threadMut{applyTo: "R", swapArriveCheck: true},
	},
	{
		Name:   "unfence-arrive",
		Config: "mutex-2r1w",
		Desc:   "buffer the reader's flag store (drop the store-load fence): under TSO the lock check outruns the flag publication; SC stays clean",
		Expect: map[Sem]ViolationKind{SemTSO: ViolMutex},
		tm:     threadMut{applyTo: "R", plainStores: []string{"Arrive"}},
	},
}

// Mutations lists the registry sorted by name.
func Mutations() []Mutation {
	out := append([]Mutation(nil), mutations...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindMutation looks one up by name.
func FindMutation(name string) (Mutation, bool) {
	for _, m := range mutations {
		if m.Name == name {
			return m, true
		}
	}
	return Mutation{}, false
}

// MutationResult is the self-test verdict for one mutation under one
// semantics.
type MutationResult struct {
	Mutation string     `json:"mutation"`
	Config   string     `json:"config"`
	Sem      string     `json:"sem"`
	Expected string     `json:"expected"` // "" means expected clean
	Caught   bool       `json:"caught"`
	Run      *RunResult `json:"run,omitempty"`
	Err      string     `json:"error,omitempty"`
}

// RunMutation builds the mutated model and checks it under both
// semantics against the expectation table.
func RunMutation(ex *extractor, mut Mutation, opts ExploreOpts) []MutationResult {
	var out []MutationResult
	for _, sem := range []Sem{SemSC, SemTSO} {
		mr := MutationResult{Mutation: mut.Name, Config: mut.Config, Sem: sem.String()}
		if want, ok := mut.Expect[sem]; ok {
			mr.Expected = string(want)
		}
		m, err := BuildConfig(ex, mut.Config, &mut.tm)
		if err != nil {
			mr.Err = err.Error()
			out = append(out, mr)
			continue
		}
		res := RunModel(m, sem, opts)
		mr.Run = &res
		if mr.Expected == "" {
			mr.Caught = res.Violation == nil
			if res.Violation != nil {
				mr.Err = fmt.Sprintf("expected clean, got %s: %s", res.Violation.Kind, res.Violation.Msg)
			}
		} else {
			switch {
			case res.Violation == nil:
				mr.Err = fmt.Sprintf("expected %s, model verified clean", mr.Expected)
			case string(res.Violation.Kind) != mr.Expected:
				mr.Err = fmt.Sprintf("expected %s, got %s: %s", mr.Expected, res.Violation.Kind, res.Violation.Msg)
			default:
				mr.Caught = true
			}
		}
		out = append(out, mr)
	}
	return out
}
