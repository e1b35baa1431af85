// Command sprwl-lint runs the repository's custom static analyzers — the
// mechanized form of the concurrency and hot-path invariants documented in
// DESIGN.md §8 — over module packages:
//
//	go run ./cmd/sprwl-lint ./...
//
// Patterns follow the go tool's form ("./...", "./internal/core",
// "./internal/..."); with no arguments the whole module is checked. The
// exit status is 0 when no diagnostics survive suppression and no
// suppression is stale, 1 when any invariant violation or stale
// //sprwl:allow directive is reported, and 2 when loading or type-checking
// fails. Intentional exceptions are suppressed at the site with
// //sprwl:allow(<analyzer>) plus a justification; suppressed findings are
// counted on stderr so they stay visible, and a directive that suppresses
// nothing is itself an error — delete the allow when the finding it
// justified is gone.
//
// With -json the run is emitted as a single machine-readable object on
// stdout (diagnostics, suppressed findings, stale allows, and counts; see
// the report type) for CI artifacts and dashboards; the human format and
// exit codes are unchanged otherwise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sprwl/internal/analysis/bodyidempotent"
	"sprwl/internal/analysis/driver"
	"sprwl/internal/analysis/hotpathalloc"
)

var analyzers = []*driver.Analyzer{
	bodyidempotent.Analyzer,
	hotpathalloc.Analyzer,
}

// finding is one diagnostic in the -json report.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// staleAllow is one unused suppression directive in the -json report,
// with the full position and the analyzer names it claims to silence so
// dashboards can link straight to the directive.
type staleAllow struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Column    int      `json:"column"`
	Analyzers []string `json:"analyzers"`
}

// report is the top-level -json object.
type report struct {
	Diagnostics []finding    `json:"diagnostics"`
	Suppressed  []finding    `json:"suppressed"`
	StaleAllows []staleAllow `json:"staleAllows"`
	Counts      struct {
		Diagnostics int `json:"diagnostics"`
		Suppressed  int `json:"suppressed"`
		StaleAllows int `json:"staleAllows"`
	} `json:"counts"`
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprwl-lint:", err)
		os.Exit(2)
	}
	os.Exit(run(dir, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it checks the module enclosing dir against
// args and returns the exit status documented on the package.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sprwl-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the run as a JSON object on stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sprwl-lint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := findModuleRoot(dir)
	if err != nil {
		return fatal(err)
	}
	prog, err := driver.NewProgram(moduleDir)
	if err != nil {
		return fatal(err)
	}
	pkgs, err := prog.LoadPatterns(patterns)
	if err != nil {
		return fatal(err)
	}
	res, err := driver.RunAnalyzers(prog, pkgs, analyzers)
	if err != nil {
		return fatal(err)
	}

	// Positions are reported relative to the module root: stable across
	// checkouts, so JSON artifacts diff cleanly between CI runs.
	rel := func(file string) string {
		if r, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return file
	}
	toFindings := func(ds []driver.Diagnostic) []finding {
		out := make([]finding, 0, len(ds))
		for _, d := range ds {
			p := prog.Fset.Position(d.Pos)
			out = append(out, finding{
				File: rel(p.Filename), Line: p.Line, Column: p.Column,
				Analyzer: d.Analyzer.Name, Message: d.Message,
			})
		}
		return out
	}

	var r report
	r.Diagnostics = toFindings(res.Diagnostics)
	r.Suppressed = toFindings(res.Suppressed)
	r.StaleAllows = make([]staleAllow, 0, len(res.StaleAllows))
	for _, a := range res.StaleAllows {
		p := prog.Fset.Position(a.Pos)
		r.StaleAllows = append(r.StaleAllows, staleAllow{File: rel(p.Filename), Line: p.Line, Column: p.Column, Analyzers: a.Names})
	}
	r.Counts.Diagnostics = len(r.Diagnostics)
	r.Counts.Suppressed = len(r.Suppressed)
	r.Counts.StaleAllows = len(r.StaleAllows)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return fatal(err)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintf(stdout, "%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer.Name, d.Message)
		}
		for _, a := range res.StaleAllows {
			fmt.Fprintf(stdout, "%s: stale //sprwl:allow(%s): suppresses nothing; delete it or re-justify against a live finding\n",
				prog.Fset.Position(a.Pos), strings.Join(a.Names, ", "))
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(stderr, "sprwl-lint: %d finding(s) suppressed by //sprwl:allow\n", n)
		}
	}

	if bad := len(res.Diagnostics) + len(res.StaleAllows); bad > 0 {
		fmt.Fprintf(stderr, "sprwl-lint: %d invariant violation(s) and/or stale suppression(s)\n", bad)
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the enclosing go.mod, so the tool
// works from any subdirectory of the module.
func findModuleRoot(start string) (string, error) {
	dir := start
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found in or above %s", start)
		}
		dir = parent
	}
}
