package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module holding files and returns
// its root directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module example.com/m\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// Fixture sources: a hot path with one allocation at a.go:5, the same
// allocation silenced at the site, and an allow with nothing to silence.
const (
	hotClean = "package m\n\n//sprwl:hotpath\nfunc F(xs []int) int {\n\treturn len(xs)\n}\n"
	hotAlloc = "package m\n\n//sprwl:hotpath\nfunc F(n int) []int {\n\treturn make([]int, n)\n}\n"
	hotAllow = "package m\n\n//sprwl:hotpath\nfunc F(n int) []int {\n" +
		"\t//sprwl:allow(hotpathalloc) deliberate: sized once per call\n\treturn make([]int, n)\n}\n"
	staleSrc = "package m\n\n//sprwl:allow(hotpathalloc) nothing here allocates\nfunc G() {}\n"
)

// TestExitStatus pins the gate CI relies on: 0 when nothing survives
// suppression, 1 for any finding or stale allow, 2 when the run itself
// cannot proceed. Suppressed findings stay visible on stderr.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name       string
		files      map[string]string
		subdir     string
		args       []string
		want       int
		wantStdout string
		wantStderr string
	}{
		{name: "Clean", files: map[string]string{"a.go": hotClean}, want: 0},
		{name: "Finding", files: map[string]string{"a.go": hotAlloc}, want: 1,
			wantStdout: "a.go:5:9: hotpathalloc: hotpath m.F: make allocates"},
		{name: "Suppressed", files: map[string]string{"a.go": hotAllow}, want: 0,
			wantStderr: "1 finding(s) suppressed by //sprwl:allow"},
		{name: "StaleAllow", files: map[string]string{"a.go": hotClean, "b.go": staleSrc}, want: 1,
			wantStdout: "b.go:3:1: stale //sprwl:allow(hotpathalloc)"},
		{name: "FromSubdirectory", files: map[string]string{"a.go": hotAlloc, "sub/s.go": "package sub\n"},
			subdir: "sub", want: 1, wantStdout: "a.go:5:9: hotpathalloc: hotpath m.F: make allocates"},
		{name: "PatternExcludesFinding", files: map[string]string{"a.go": hotAlloc, "sub/s.go": "package sub\n"},
			args: []string{"./sub"}, want: 0},
		{name: "TypeError", files: map[string]string{"a.go": "package m\n\nvar x int = \"s\"\n"}, want: 2,
			wantStderr: "sprwl-lint: "},
		{name: "UnknownFlag", files: map[string]string{"a.go": hotClean},
			args: []string{"-baseline", "LINT_baseline.json"}, want: 2,
			wantStderr: "flag provided but not defined: -baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(writeModule(t, tc.files), filepath.FromSlash(tc.subdir))
			var stdout, stderr bytes.Buffer
			if got := run(dir, tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, &stdout, &stderr)
			}
			if tc.wantStdout == "" && stdout.Len() > 0 {
				t.Errorf("unexpected stdout:\n%s", &stdout)
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.wantStdout, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantStderr, &stderr)
			}
		})
	}
}

// TestNoModule: outside any module the run fails to start rather than
// reporting a clean tree.
func TestNoModule(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if got := run(dir, nil, &stdout, &stderr); got != 2 {
		t.Fatalf("exit %d, want 2\nstderr:\n%s", got, &stderr)
	}
	if !strings.Contains(stderr.String(), "no go.mod found in or above "+dir) {
		t.Errorf("stderr does not name the start directory:\n%s", &stderr)
	}
}

// TestJSONReport: -json puts every finding, suppressed finding and stale
// allow in one object with module-relative positions, and keeps the exit
// status of the human format.
func TestJSONReport(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a.go":     hotAllow,
		"b.go":     staleSrc,
		"sub/c.go": strings.Replace(hotAlloc, "package m", "package sub", 1),
	})
	var stdout, stderr bytes.Buffer
	if got := run(dir, []string{"-json"}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", got, &stderr)
	}
	var r report
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, &stdout)
	}
	want := finding{File: "sub/c.go", Line: 5, Column: 9, Analyzer: "hotpathalloc", Message: "hotpath sub.F: make allocates"}
	if len(r.Diagnostics) != 1 || r.Diagnostics[0] != want {
		t.Errorf("diagnostics = %+v, want [%+v]", r.Diagnostics, want)
	}
	if len(r.Suppressed) != 1 || r.Suppressed[0].File != "a.go" || r.Suppressed[0].Line != 6 {
		t.Errorf("suppressed = %+v, want one finding at a.go:6", r.Suppressed)
	}
	if len(r.StaleAllows) != 1 || r.StaleAllows[0].File != "b.go" || r.StaleAllows[0].Line != 3 ||
		strings.Join(r.StaleAllows[0].Analyzers, ",") != "hotpathalloc" {
		t.Errorf("staleAllows = %+v, want one hotpathalloc allow at b.go:3", r.StaleAllows)
	}
	if r.Counts.Diagnostics != 1 || r.Counts.Suppressed != 1 || r.Counts.StaleAllows != 1 {
		t.Errorf("counts = %+v, want 1/1/1", r.Counts)
	}
}
