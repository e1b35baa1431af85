package harness

import (
	"fmt"

	"sprwl/internal/htm"
)

// RunOpts tunes an experiment run.
type RunOpts struct {
	// Profile selects the machine model; experiments that are
	// profile-specific in the paper (Figs. 5 and 6) ignore it.
	Profile htm.Profile
	// Horizon overrides the per-point virtual measurement window
	// (0 = DefaultHorizon).
	Horizon uint64
	// Quick thins the thread sweep and shrinks the horizon for smoke
	// runs.
	Quick bool
	// Seed feeds workload RNGs; fixed seed + fixed config = identical
	// results.
	Seed uint64
	// Parallel bounds how many data points run concurrently (every point
	// is an isolated engine + space, so points are independent and the
	// report is byte-identical for any worker count). 0 = GOMAXPROCS.
	Parallel int
	// Progress, if non-nil, receives a line per completed point. With
	// Parallel > 1 the lines arrive in completion order.
	Progress func(string)
}

func (o *RunOpts) horizon() uint64 {
	h := o.Horizon
	if h == 0 {
		h = DefaultHorizon
	}
	if o.Quick {
		h /= 8
	}
	return h
}

// profile returns the machine model of a figure that follows
// RunOpts.Profile: Broadwell when unset.
func (o *RunOpts) profile() htm.Profile {
	if o.Profile.Name == "" {
		return htm.Broadwell()
	}
	return o.Profile
}

func (o *RunOpts) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// threadSweep returns the paper's x-axis for the profile. The simulator
// supports at most 64 logical threads (htm.MaxThreads), so the POWER8 sweep
// stops at 64 rather than the paper's 80; the SMT regime (8 threads/core)
// is already fully expressed at 64.
func threadSweep(p htm.Profile, quick bool) []int {
	var sweep []int
	switch p.Name {
	case "power8":
		sweep = []int{1, 2, 4, 8, 16, 32, 64}
	default:
		sweep = []int{1, 2, 4, 8, 14, 28, 42, 56}
	}
	if quick {
		thinned := make([]int, 0, (len(sweep)+1)/2)
		for i := 0; i < len(sweep); i += 2 {
			thinned = append(thinned, sweep[i])
		}
		return thinned
	}
	return sweep
}

// hashmapFor returns the §4.1 population for the profile, sized so that the
// paper's regimes hold: a 10-lookup read section overflows the effective
// read capacity while a 1-lookup section (and update sections) fit.
func hashmapFor(p htm.Profile) Hashmap {
	switch p.Name {
	case "power8":
		// Chains of ~128 lines: a 10-lookup read section touches ~640
		// distinct lines on average (half-chain hits) — far beyond
		// the 128-line capacity, with the doomed HTM-first attempt
		// wasting only ~capacity/footprint of the work; a 1-lookup
		// section (~64 lines) fits until SMT sharing shrinks the
		// capacity at high thread counts, as on the paper's machine.
		return Hashmap{Buckets: 512, Items: 65536}
	default:
		// Chains of ~256 lines against the 384-line effective
		// capacity: update sections (half-chain traversals, ≤256
		// lines) always fit, 1-lookup read sections fit, 10-lookup
		// sections (~1280 lines) overflow — the paper's regime.
		return Hashmap{Buckets: 512, Items: 131072}
	}
}

// figAlgos returns the baseline set the paper plots on each machine:
// RW-LE exists only on POWER8.
func figAlgos(p htm.Profile) []string {
	algos := []string{AlgoTLE, AlgoRWL, AlgoBRLock, AlgoSpRWL}
	if p.Name == "power8" {
		algos = []string{AlgoTLE, AlgoRWLE, AlgoRWL, AlgoBRLock, AlgoSpRWL}
	}
	return algos
}

// cappedSweepNote is the note of a figure whose POWER8 thread sweep stops
// at the simulator's slot limit.
const cappedSweepNote = "thread sweep capped at 64 (simulator slot limit); paper goes to 80"

// runHashmapFigure produces the Fig. 3/4 layout: one section per update
// mix, each sweeping threads × algorithms.
func runHashmapFigure(id, title string, lookups int, opts RunOpts) (*Report, error) {
	p := opts.profile()
	rep := &Report{ID: id, Title: fmt.Sprintf("%s (%s)", title, p.Name)}
	if p.Name == "power8" {
		rep.Notes = append(rep.Notes, cappedSweepNote)
	}
	s := newSweep(rep, p, opts)
	for _, mix := range []int{10, 50, 90} {
		s.section(fmt.Sprintf("%d%% update", mix))
		wl := hashmapFor(p)
		wl.LookupsPerRead = lookups
		wl.UpdatePercent = mix
		for _, algo := range figAlgos(p) {
			for _, n := range threadSweep(p, opts.Quick) {
				s.add(algo, n, wl)
			}
		}
	}
	return s.run()
}

// Fig3 regenerates Figure 3: hashmap with 10-lookup read sections (readers
// overflow HTM capacity), 10/50/90% updates, thread sweep, all baselines.
func Fig3(opts RunOpts) (*Report, error) {
	return runHashmapFigure("fig3", "Hashmap, readers = 10 lookups (exceed HTM capacity)", 10, opts)
}

// Fig4 regenerates Figure 4: same as Fig. 3 but with 1-lookup read sections
// that fit in HTM — TLE's favourable regime.
func Fig4(opts RunOpts) (*Report, error) {
	return runHashmapFigure("fig4", "Hashmap, readers = 1 lookup (fit in HTM)", 1, opts)
}

// Fig5 regenerates Figure 5: the scheduling ablation (NoSched / RWait /
// RSync / SpRWL vs TLE) on Broadwell, 10% updates, long readers.
func Fig5(opts RunOpts) (*Report, error) {
	p := htm.Broadwell()
	wl := hashmapFor(p)
	wl.LookupsPerRead = 10
	wl.UpdatePercent = 10
	s := newSweep(&Report{ID: "fig5", Title: "Scheduling ablation (broadwell, 10% update, long readers)"}, p, opts)
	s.section("10% update")
	for _, algo := range []string{AlgoTLE, AlgoSpRWLNoSched, AlgoSpRWLRWait, AlgoSpRWLRSync, AlgoSpRWL} {
		for _, n := range threadSweep(p, opts.Quick) {
			s.add(algo, n, wl)
		}
	}
	return s.run()
}

// readerSizeSweep produces the Fig. 6 / extauto layout on POWER8 at the
// maximum thread count, 50% updates: one section per reader size, each
// comparing algos.
func readerSizeSweep(rep *Report, lookupSweep []int, algos []string, threads int, opts RunOpts) (*Report, error) {
	p := htm.Power8()
	s := newSweep(rep, p, opts)
	for _, lookups := range lookupSweep {
		s.section(fmt.Sprintf("reader size = %d lookups", lookups))
		wl := hashmapFor(p)
		wl.LookupsPerRead = lookups
		wl.UpdatePercent = 50
		for _, algo := range algos {
			s.add(algo, threads, wl)
		}
	}
	return s.run()
}

// Fig6 regenerates Figure 6: flag-array vs SNZI reader tracking on POWER8
// at the maximum thread count, 50% updates, sweeping the reader size (the
// paper's reader/writer size ratio axis).
func Fig6(opts RunOpts) (*Report, error) {
	threads := 64 // paper uses 80; simulator slot limit is 64
	lookupSweep := []int{1, 4, 16, 64, 128}
	if opts.Quick {
		threads = 32
		lookupSweep = []int{1, 16, 128}
	}
	rep := &Report{
		ID:    "fig6",
		Title: fmt.Sprintf("Reader tracking: flags vs SNZI (power8, 50%% update, %d threads)", threads),
		Notes: []string{"80 paper threads capped at 64 (simulator slot limit)"},
	}
	return readerSizeSweep(rep, lookupSweep, []string{AlgoSpRWL, AlgoSpRWLSNZI}, threads, opts)
}
