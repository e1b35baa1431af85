package harness

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
)

func mkReport(id string, pts ...Point) *Report {
	return &Report{ID: id, Sections: []Section{{Title: "s", Points: pts}}}
}

func TestCompareReportsClassifiesDeltas(t *testing.T) {
	old := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "B", Threads: 2, Throughput: 100},
		Point{Algo: "C", Threads: 2, Throughput: 100},
	)}
	new := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 90},  // -10%: regression
		Point{Algo: "B", Threads: 2, Throughput: 104}, // +4%: within threshold
		Point{Algo: "C", Threads: 2, Throughput: 120}, // +20%: improvement
	)}
	c := CompareReports(old, new, 0.05)
	if c.OK() {
		t.Fatal("expected a regression")
	}
	if len(c.Regressions) != 1 || c.Regressions[0].Algo != "A" {
		t.Fatalf("regressions = %+v, want exactly A", c.Regressions)
	}
	if got := c.Regressions[0].Delta; got > -0.09 || got < -0.11 {
		t.Fatalf("regression delta = %v, want about -0.10", got)
	}
	if len(c.Improvements) != 1 || c.Improvements[0].Algo != "C" {
		t.Fatalf("improvements = %+v, want exactly C", c.Improvements)
	}
	if len(c.Unchanged) != 1 || c.Unchanged[0].Algo != "B" {
		t.Fatalf("unchanged = %+v, want exactly B", c.Unchanged)
	}
}

func TestCompareReportsIdenticalSetsPass(t *testing.T) {
	reports := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "A", Threads: 4, Throughput: 0}, // zero throughput must not divide by zero
	)}
	c := CompareReports(reports, reports, 0)
	if !c.OK() || len(c.Unchanged) != 2 {
		t.Fatalf("identical sets: OK=%v unchanged=%d, want pass with 2 unchanged", c.OK(), len(c.Unchanged))
	}
}

func TestCompareReportsMissingAndExtra(t *testing.T) {
	old := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "B", Threads: 2, Throughput: 100},
	)}
	new := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "C", Threads: 2, Throughput: 100},
	)}
	c := CompareReports(old, new, 0.05)
	if len(c.Missing) != 1 || !strings.Contains(c.Missing[0], "B@2") {
		t.Fatalf("missing = %v, want B@2", c.Missing)
	}
	if len(c.Extra) != 1 || !strings.Contains(c.Extra[0], "C@2") {
		t.Fatalf("extra = %v, want C@2", c.Extra)
	}
}

// TestCompareReportsMissingPointFails: a baseline point that vanishes from
// the new run fails the gate even when every matched point holds, while a
// point only the new run has is reported and passes.
func TestCompareReportsMissingPointFails(t *testing.T) {
	both := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "B", Threads: 2, Throughput: 100},
	)}
	one := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 100})}
	if c := CompareReports(both, one, 0.05); c.OK() || len(c.Regressions) != 0 {
		t.Fatalf("vanished point: OK=%v regressions=%d, want a failing gate with no regression", c.OK(), len(c.Regressions))
	}
	if c := CompareReports(one, both, 0.05); !c.OK() || len(c.Extra) != 1 {
		t.Fatalf("extra point: OK=%v extra=%v, want a passing gate that reports it", c.OK(), c.Extra)
	}
}

func TestCompareFormatMentionsRegression(t *testing.T) {
	old := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 100})}
	new := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 50})}
	var buf bytes.Buffer
	CompareReports(old, new, 0.05).Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "regressions") || !strings.Contains(out, "-50.0%") {
		t.Fatalf("formatted comparison missing regression details:\n%s", out)
	}
}

func TestReadJSONRoundTripsWriteJSON(t *testing.T) {
	reports := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 123.5, Ops: 7})}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "fig" || got[0].Sections[0].Points[0].Throughput != 123.5 {
		t.Fatalf("round trip mismatch: %+v", got[0])
	}
}

// TestBaselineHoldsOnlySimulatedFigures: the committed gate baseline holds
// exactly one report per simulated experiment, so `-exp all -quick -json`
// can reproduce it and every point it lists is one the gate can match.
func TestBaselineHoldsOnlySimulatedFigures(t *testing.T) {
	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reports, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, r := range reports {
		got = append(got, r.ID)
	}
	for id := range Experiments() {
		want = append(want, id)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("baseline report IDs = %v, want the simulated experiments %v", got, want)
	}
}
