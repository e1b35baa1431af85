package harness

import (
	"fmt"
	"io"
	"sort"
)

// Threshold-based benchmark regression diffing between two report sets (the
// committed BENCH_baseline.json and a fresh run). Points are matched by
// (figure, section, algorithm, thread count); a matched point regresses when
// its new throughput falls more than the threshold fraction below the old
// one. cmd/sprwl-bench -compare exits non-zero when any point regressed or
// vanished, which is the gate every perf-focused change is judged by.

// CompareEntry is one matched data point's throughput delta.
type CompareEntry struct {
	Figure  string
	Section string
	Algo    string
	Threads int
	Old     float64 // ops per million cycles
	New     float64
	// Delta is the relative change: (New-Old)/Old. Old == 0 with New > 0
	// reports +Inf-free 1.0; both zero reports 0.
	Delta float64
}

func (e CompareEntry) key() string {
	return fmt.Sprintf("%s | %s | %s@%d", e.Figure, e.Section, e.Algo, e.Threads)
}

// Comparison is the outcome of diffing two report sets.
type Comparison struct {
	// Threshold is the regression tolerance as a fraction (0.05 = 5%).
	Threshold float64
	// Regressions and Improvements hold matched points beyond the
	// threshold, worst first. Unchanged holds the rest.
	Regressions  []CompareEntry
	Improvements []CompareEntry
	Unchanged    []CompareEntry
	// Missing lists points present only in the old set and fails the
	// comparison: a silently vanished point would otherwise read as "no
	// regression". Extra lists points present only in the new set and is
	// only reported.
	Missing []string
	Extra   []string
}

// OK reports whether the comparison passes the regression gate.
func (c *Comparison) OK() bool { return len(c.Regressions) == 0 && len(c.Missing) == 0 }

func relDelta(old, new float64) float64 {
	switch {
	case old == new:
		return 0
	case old == 0:
		return 1
	default:
		return (new - old) / old
	}
}

// CompareReports diffs two report sets point-by-point on throughput with the
// given regression threshold (a fraction; 0.05 = 5%).
func CompareReports(oldReports, newReports []*Report, threshold float64) *Comparison {
	type key struct {
		fig, sec, algo string
		threads        int
	}
	index := func(reports []*Report) (map[key]Point, []key) {
		m := make(map[key]Point)
		var order []key
		for _, r := range reports {
			for _, sec := range r.Sections {
				for _, p := range sec.Points {
					k := key{r.ID, sec.Title, p.Algo, p.Threads}
					if _, dup := m[k]; !dup {
						order = append(order, k)
					}
					m[k] = p
				}
			}
		}
		return m, order
	}
	oldIdx, oldOrder := index(oldReports)
	newIdx, newOrder := index(newReports)

	c := &Comparison{Threshold: threshold}
	for _, k := range oldOrder {
		op := oldIdx[k]
		np, ok := newIdx[k]
		if !ok {
			c.Missing = append(c.Missing, fmt.Sprintf("%s | %s | %s@%d", k.fig, k.sec, k.algo, k.threads))
			continue
		}
		e := CompareEntry{
			Figure: k.fig, Section: k.sec, Algo: k.algo, Threads: k.threads,
			Old: op.Throughput, New: np.Throughput,
			Delta: relDelta(op.Throughput, np.Throughput),
		}
		switch {
		case e.Delta < -threshold:
			c.Regressions = append(c.Regressions, e)
		case e.Delta > threshold:
			c.Improvements = append(c.Improvements, e)
		default:
			c.Unchanged = append(c.Unchanged, e)
		}
	}
	for _, k := range newOrder {
		if _, ok := oldIdx[k]; !ok {
			c.Extra = append(c.Extra, fmt.Sprintf("%s | %s | %s@%d", k.fig, k.sec, k.algo, k.threads))
		}
	}
	sort.SliceStable(c.Regressions, func(i, j int) bool { return c.Regressions[i].Delta < c.Regressions[j].Delta })
	sort.SliceStable(c.Improvements, func(i, j int) bool { return c.Improvements[i].Delta > c.Improvements[j].Delta })
	return c
}

// Format renders a human-readable summary of the comparison.
func (c *Comparison) Format(w io.Writer) {
	matched := len(c.Regressions) + len(c.Improvements) + len(c.Unchanged)
	fmt.Fprintf(w, "compared %d points (threshold %.1f%%): %d regressed, %d improved, %d within threshold\n",
		matched, 100*c.Threshold, len(c.Regressions), len(c.Improvements), len(c.Unchanged))
	section := func(title string, entries []CompareEntry) {
		if len(entries) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s:\n", title)
		fmt.Fprintf(w, "  %-44s %12s %12s %8s\n", "point", "old", "new", "delta")
		for _, e := range entries {
			fmt.Fprintf(w, "  %-44s %12.1f %12.1f %+7.1f%%\n", e.key(), e.Old, e.New, 100*e.Delta)
		}
	}
	section("regressions", c.Regressions)
	section("improvements", c.Improvements)
	for _, m := range c.Missing {
		fmt.Fprintf(w, "missing from new run: %s\n", m)
	}
	for _, x := range c.Extra {
		fmt.Fprintf(w, "only in new run: %s\n", x)
	}
}
