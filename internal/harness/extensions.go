package harness

import "fmt"

// Extension experiments — beyond the paper's own figures, these exercise
// the future-work directions §5 sketches (self-tuning SNZI), the §3.3
// anti-starvation option the paper describes but does not evaluate, and the
// introduction's motivating ordered-map range-scan workload. EXPERIMENTS.md
// reports them alongside the reproduced figures.

// ExtScan runs the ordered-map range-scan workload (the paper's §1
// motivation) across the standard baselines.
func ExtScan(opts RunOpts) (*Report, error) {
	p := opts.profile()
	s := newSweep(&Report{
		ID:    "extscan",
		Title: fmt.Sprintf("Ordered-map range scans over point updates (%s)", p.Name),
		Notes: []string{"extension experiment: the introduction's motivating workload on a skiplist"},
	}, p, opts)
	for _, mix := range []int{10, 50} {
		s.section(fmt.Sprintf("%d%% update", mix))
		for _, algo := range figAlgos(p) {
			for _, n := range threadSweep(p, opts.Quick) {
				s.add(algo, n, RangeScan{UpdatePercent: mix})
			}
		}
	}
	return s.run()
}

// ExtAuto compares static flag-array and SNZI tracking against the §5
// self-tuning controller across reader sizes.
func ExtAuto(opts RunOpts) (*Report, error) {
	threads := 64
	if opts.Quick {
		threads = 32
	}
	rep := &Report{
		ID:    "extauto",
		Title: fmt.Sprintf("Self-tuning SNZI (power8, 50%% update, %d threads)", threads),
		Notes: []string{"extension experiment: the paper's §5 future-work self-tuning reader tracking"},
	}
	return readerSizeSweep(rep, []int{1, 16, 128}, []string{AlgoSpRWL, AlgoSpRWLSNZI, AlgoSpRWLAuto}, threads, opts)
}

// ExtVSGL evaluates the §3.3 versioned fallback lock: reader latency under
// an update-heavy long-reader workload whose writers frequently hold the
// fallback lock.
func ExtVSGL(opts RunOpts) (*Report, error) {
	p := opts.profile()
	wl := hashmapFor(p)
	wl.LookupsPerRead = 10
	wl.UpdatePercent = 90
	s := newSweep(&Report{
		ID:    "extvsgl",
		Title: fmt.Sprintf("Versioned fallback lock (§3.3), 90%% update, long readers (%s)", p.Name),
		Notes: []string{"extension experiment: anti-starvation scheme described but not evaluated by the paper"},
	}, p, opts)
	s.section("90% update")
	for _, algo := range []string{AlgoSpRWL, AlgoSpRWLVSGL} {
		for _, n := range threadSweep(p, opts.Quick) {
			s.add(algo, n, wl)
		}
	}
	return s.run()
}
