// Command sprwl-model bounded-model-checks the extracted SpRWL protocol.
//
// It compiles the //sprwl:model-annotated reader/writer paths straight
// out of the source tree into atomic-step thread programs, then
// enumerates every interleaving (with sleep-set partial-order
// reduction) under sequential consistency, checking mutual exclusion,
// section-body integrity, quiescence, and lost-wakeup/deadlock freedom.
// SC suffices because the extracted code is data-race free with
// sequentially consistent atomics (DESIGN §14). The seeded bugs it must
// catch are the model rows of scripts/killmatrix.sh (DESIGN §8).
//
// Usage:
//
//	sprwl-model [-config name|all] [-maxstates n] [-json] [-trace dir] [-list]
//
// Exit status: 0 every config verified; 1 a violation was found; 2 usage
// or extraction error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sprwl/internal/analysis/interleave"
)

func main() {
	var (
		config    = flag.String("config", "all", "configuration to check (see -list), or all")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON")
		traceDir  = flag.String("trace", "", "write counterexample traces into this directory")
		maxStates = flag.Int("maxstates", 0, "state budget per run (0 = default)")
		list      = flag.Bool("list", false, "list configurations")
	)
	flag.Parse()

	if *list {
		fmt.Println("configurations:")
		for _, n := range interleave.ConfigNames() {
			fmt.Printf("  %-16s %s\n", n, interleave.ConfigDoc(n))
		}
		return
	}

	ex, err := interleave.NewExtractor(".")
	if err != nil {
		fatal(err)
	}

	names := interleave.ConfigNames()
	if *config != "all" {
		names = []string{*config}
	}

	opts := interleave.ExploreOpts{MaxStates: *maxStates}
	var runs []interleave.RunResult
	exit := 0
	for _, name := range names {
		m, err := ex.Build(name)
		if err != nil {
			fatal(err)
		}
		res := interleave.RunModel(m, opts)
		runs = append(runs, res)
		if res.Violation != nil {
			exit = 1
			writeTrace(*traceDir, res.Model, res.Violation)
		}
		if !*jsonOut {
			printRun(res)
		}
	}
	if *jsonOut {
		emitJSON(map[string]any{"runs": runs})
	}
	os.Exit(exit)
}

func printRun(res interleave.RunResult) {
	status := "verified"
	if !res.Complete {
		status = "INCOMPLETE (bounds hit)"
	}
	if res.Violation != nil {
		status = "VIOLATION"
	}
	fmt.Printf("%-16s %-24s states=%d transitions=%d pruned=%d depth=%d\n",
		res.Model, status, res.States, res.Transitions, res.Pruned, res.MaxDepth)
	if res.Violation != nil {
		fmt.Print(indent(interleave.RenderTrace(res.Violation)))
	}
}

func writeTrace(dir, name string, v *interleave.Violation) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sprwl-model:", err)
		return
	}
	path := filepath.Join(dir, name+".trace")
	if err := os.WriteFile(path, []byte(interleave.RenderTrace(v)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "sprwl-model:", err)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func indent(s string) string {
	return "    " + s[:len(s)-1] + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sprwl-model:", err)
	os.Exit(2)
}
