package harness

import (
	"fmt"

	"sprwl/internal/tpcc"
	"sprwl/internal/workload"
)

// Fig7 regenerates Figure 7: TPC-C with the paper's mix (Stock-Level 31%,
// Delivery 4%, Order-Status 4%, Payment 43%, New-Order 18%), warehouses
// equal to the maximum thread count, sweeping threads over all baselines
// plus the SNZI variant.
func Fig7(opts RunOpts) (*Report, error) {
	p := opts.profile()
	sweep := threadSweep(p, opts.Quick)
	maxThreads := sweep[len(sweep)-1]
	rep := &Report{
		ID:    "fig7",
		Title: fmt.Sprintf("TPC-C, paper mix (%s, %d warehouses)", p.Name, maxThreads),
	}
	if p.Name == "power8" {
		rep.Notes = append(rep.Notes, cappedSweepNote)
	}
	wl := TPCC{Scale: tpcc.Config{Warehouses: maxThreads}, Mix: workload.PaperMix()}
	s := newSweep(rep, p, opts)
	s.section("paper mix")
	for _, algo := range append(figAlgos(p), AlgoSpRWLSNZI) {
		for _, n := range sweep {
			s.add(algo, n, wl)
		}
	}
	return s.run()
}

// Experiments returns the full per-figure registry, keyed by experiment ID.
func Experiments() map[string]func(RunOpts) (*Report, error) {
	return map[string]func(RunOpts) (*Report, error){
		"fig3":    Fig3,
		"fig4":    Fig4,
		"fig5":    Fig5,
		"fig6":    Fig6,
		"fig7":    Fig7,
		"extscan": ExtScan,
		"extauto": ExtAuto,
		"extvsgl": ExtVSGL,
	}
}
