package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Section groups the points of one panel of a figure (e.g. one update mix).
type Section struct {
	Title  string
	Points []Point
}

// Report is a regenerated figure: the same series the paper plots, as
// machine- and human-readable tables.
type Report struct {
	ID    string
	Title string
	// Notes records substitutions and scope deviations (documented in
	// DESIGN.md) that apply to this figure.
	Notes    []string
	Sections []Section
}

// Format renders aligned per-section tables.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, sec := range r.Sections {
		fmt.Fprintf(w, "\n-- %s --\n", sec.Title)
		fmt.Fprintf(w, "%-14s %7s %12s %8s %7s %7s %7s %7s %7s %12s %12s\n",
			"algo", "threads", "ops/Mcyc", "aborts%", "HTM%", "ROT%", "GL%", "Unins%", "rdAb%", "rdLat(cyc)", "wrLat(cyc)")
		for _, p := range sec.Points {
			fmt.Fprintf(w, "%-14s %7d %12.1f %8.1f %7.1f %7.1f %7.1f %7.1f %7.1f %12.0f %12.0f\n",
				p.Algo, p.Threads, p.Throughput, 100*p.AbortRate,
				100*p.HTMShare, 100*p.ROTShare, 100*p.GLShare, 100*p.UninsShare,
				100*p.ReaderShare, p.ReaderLatency, p.WriterLatency)
		}
	}
}

// CSV renders every point as comma-separated rows with a header. It
// returns the first write error.
func (r *Report) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,section,algo,threads,ops,cycles,throughput_ops_per_mcycle,abort_rate,conflict_share,capacity_share,explicit_share,reader_share,htm_share,rot_share,gl_share,unins_share,pess_share,reader_latency_cycles,writer_latency_cycles,reader_p99_cycles,writer_p99_cycles"); err != nil {
		return err
	}
	for _, sec := range r.Sections {
		secName := strings.ReplaceAll(sec.Title, ",", ";")
		for _, p := range sec.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.1f,%.1f,%d,%d\n",
				r.ID, secName, p.Algo, p.Threads, p.Ops, p.Cycles, p.Throughput,
				p.AbortRate, p.ConflictShare, p.CapacityShare, p.ExplicitShare, p.ReaderShare,
				p.HTMShare, p.ROTShare, p.GLShare, p.UninsShare, p.PessShare,
				p.ReaderLatency, p.WriterLatency, p.ReaderP99, p.WriterP99); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the given reports as an indented JSON document, the
// format BENCH_baseline.json is committed in.
func WriteJSON(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// ReadJSON parses a report document previously written by WriteJSON.
func ReadJSON(r io.Reader) ([]*Report, error) {
	var reports []*Report
	if err := json.NewDecoder(r).Decode(&reports); err != nil {
		return nil, fmt.Errorf("harness: parsing report JSON: %w", err)
	}
	return reports, nil
}

// Best returns the point with the highest throughput for algo across all
// sections matching sectionFilter (empty = all), used by the experiment
// shape checks.
func (r *Report) Best(algo, sectionFilter string) (Point, bool) {
	var best Point
	found := false
	for _, sec := range r.Sections {
		if sectionFilter != "" && !strings.Contains(sec.Title, sectionFilter) {
			continue
		}
		for _, p := range sec.Points {
			if p.Algo == algo && (!found || p.Throughput > best.Throughput) {
				best = p
				found = true
			}
		}
	}
	return best, found
}
