// Package harness defines and runs the paper's experiments: one
// specification per evaluation figure, a deterministic simulation runner
// behind each data point, and table/CSV reporting of the same series the
// paper plots. See DESIGN.md §4 for the experiment index.
package harness

import (
	"fmt"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwle"
	"sprwl/internal/rwlock"
	"sprwl/internal/sim"
	"sprwl/internal/tle"
)

// Algorithm names accepted by BuildLock; these are the labels the paper's
// plots use.
const (
	AlgoSpRWL        = "SpRWL"
	AlgoSpRWLSNZI    = "SpRWL-SNZI"
	AlgoSpRWLBravo   = "SpRWL-Bravo"
	AlgoSpRWLNoSched = "SpRWL-NoSched"
	AlgoSpRWLRWait   = "SpRWL-RWait"
	AlgoSpRWLRSync   = "SpRWL-RSync"
	AlgoSpRWLVSGL    = "SpRWL-VSGL"
	AlgoSpRWLAuto    = "SpRWL-Auto"
	AlgoTLE          = "TLE"
	AlgoRWLE         = "RW-LE"
	AlgoRWL          = "RWL"
	AlgoBRLock       = "BRLock"
)

// AllAlgorithms lists every lock BuildLock can construct.
func AllAlgorithms() []string {
	return []string{
		AlgoSpRWL, AlgoSpRWLSNZI, AlgoSpRWLBravo, AlgoSpRWLNoSched,
		AlgoSpRWLRWait, AlgoSpRWLRSync, AlgoSpRWLVSGL, AlgoSpRWLAuto,
		AlgoTLE, AlgoRWLE, AlgoRWL, AlgoBRLock,
	}
}

// LockWords returns a safe arena budget (in words) for any single lock
// instance at the given thread count.
func LockWords(threads int) int {
	// SpRWL is the largest: five per-thread arrays, the fallback lock,
	// and a SNZI tree; triple it for slack and the baselines' per-thread
	// lines.
	return 3*core.Words(threads) + 64*memmodel.LineWords*(threads+4)
}

// sprwlVariants maps each SpRWL algorithm name to its core options.
var sprwlVariants = map[string]func() core.Options{
	AlgoSpRWL:        core.DefaultOptions,
	AlgoSpRWLSNZI:    core.SNZIOptions,
	AlgoSpRWLBravo:   core.BravoOptions,
	AlgoSpRWLNoSched: core.NoSchedOptions,
	AlgoSpRWLRWait:   core.RWaitOptions,
	AlgoSpRWLRSync:   core.RSyncOptions,
	AlgoSpRWLVSGL: func() core.Options {
		o := core.DefaultOptions()
		o.VersionedSGL = true
		return o
	},
	AlgoSpRWLAuto: core.AutoSNZIOptions,
}

// simBravoSlots is the BRAVO table size of every simulated SpRWL lock.
// The real runtime sizes the table from GOMAXPROCS, but a simulated
// machine has no host CPUs to size it from, and a figure must not depend
// on the host that regenerates it. Four slots is the table
// BENCH_baseline.json was recorded with.
const simBravoSlots = 4

// BuildLock constructs the named algorithm over e, carving lock state from
// ar. numCS sizes the duration estimator for SpRWL variants. pipe is the
// observability pipeline the lock reports through; nil disables
// instrumentation.
func BuildLock(name string, e env.Env, ar *memmodel.Arena, threads, numCS int, pipe *obs.Pipeline) (rwlock.Lock, error) {
	if variant, ok := sprwlVariants[name]; ok {
		opts := variant()
		if _, simulated := e.(*sim.Env); simulated {
			opts.BravoSlots = simBravoSlots
		}
		return core.New(e, ar, threads, numCS, opts, pipe)
	}
	switch name {
	case AlgoTLE:
		return tle.New(e, ar, pipe), nil
	case AlgoRWLE:
		return rwle.New(e, ar, threads, pipe), nil
	case AlgoRWL:
		return locks.NewRWL(e, ar, pipe), nil
	case AlgoBRLock:
		return locks.NewBRLock(e, ar, threads, pipe), nil
	default:
		return nil, fmt.Errorf("harness: unknown algorithm %q", name)
	}
}
