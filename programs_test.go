package sprwl_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryProgramRunsInCI: a runnable program that no check runs rots
// unnoticed, so every directory of this module holding a non-test
// `package main` must be a `./cmd/<name>` that a `run:` step of the CI
// workflow names as a whole word. Anything else belongs in a test, usually
// as an Example.
func TestEveryProgramRunsInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runs := ciRunLines(string(ci))
	mains, err := mainPackageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("found no package main at all; the directory walk is broken")
	}
	for _, dir := range mains {
		switch {
		case !strings.HasPrefix(dir, "cmd/"):
			t.Errorf("%s: package main outside cmd/; make it a test or an Example", dir)
		case !runsProgram(runs, dir):
			t.Errorf("%s: no CI run step names ./%s", dir, dir)
		}
	}
}

// TestCIRunLinesMatchWholeRunCommands: a program counts as run only where
// a run step's shell names it. A comment, a step name or a longer program
// name does not count.
func TestCIRunLinesMatchWholeRunCommands(t *testing.T) {
	const workflow = `jobs:
  a:
    steps:
      # go run ./cmd/incomment
      - name: Build ./cmd/inname
        run: go build ./cmd/onelinetwo # ./cmd/trailing
      - run: |
          # go run ./cmd/shellcomment
          go build -o x ./cmd/block \
            -v
          ./x
      - name: After the block
        with:
          path: ./cmd/inwith
`
	runs := ciRunLines(workflow)
	for dir, want := range map[string]bool{
		"cmd/block":        true,
		"cmd/onelinetwo":   true,
		"cmd/oneline":      false,
		"cmd/trailing":     false,
		"cmd/incomment":    false,
		"cmd/inname":       false,
		"cmd/shellcomment": false,
		"cmd/inwith":       false,
	} {
		if got := runsProgram(runs, dir); got != want {
			t.Errorf("runsProgram(%s) = %v, want %v; run lines %q", dir, got, want, runs)
		}
	}
}

// ciRunLines returns the shell lines of every `run:` step of a workflow:
// the value of a one-line `run: cmd`, or each line of a `run: |` block
// (the lines indented deeper than the key). Comments are dropped.
func ciRunLines(workflow string) []string {
	var lines []string
	block := -1 // indentation of the run: key whose block is open
	for _, line := range strings.Split(workflow, "\n") {
		text := strings.TrimSpace(line)
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if block >= 0 {
			if text == "" || indent > block {
				lines = appendCommand(lines, text)
				continue
			}
			block = -1
		}
		v, ok := strings.CutPrefix(strings.TrimPrefix(text, "- "), "run:")
		if !ok {
			continue
		}
		if v = strings.TrimSpace(v); strings.HasPrefix(v, "|") || strings.HasPrefix(v, ">") {
			block = indent
			continue
		}
		lines = appendCommand(lines, v)
	}
	return lines
}

// appendCommand appends cmd, cut at its first comment, unless nothing is
// left of it.
func appendCommand(lines []string, cmd string) []string {
	if i := strings.Index(" "+cmd, " #"); i >= 0 {
		cmd = cmd[:i]
	}
	if cmd = strings.TrimSpace(cmd); cmd != "" {
		lines = append(lines, cmd)
	}
	return lines
}

// runsProgram reports whether some run line names ./dir as a whole word.
func runsProgram(runs []string, dir string) bool {
	re := regexp.MustCompile(`(^|\s)\./` + regexp.QuoteMeta(dir) + `(\s|$)`)
	for _, line := range runs {
		if re.MatchString(line) {
			return true
		}
	}
	return false
}

// mainPackageDirs lists, slash-separated and relative to root, every
// directory of root's module that holds a non-test Go file of package
// main. Nested modules, testdata and hidden or underscore directories are
// skipped, as the go tool skips them.
func mainPackageDirs(root string) ([]string, error) {
	set := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			set[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	dirs := make([]string, 0, len(set))
	for dir := range set {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, err
}
