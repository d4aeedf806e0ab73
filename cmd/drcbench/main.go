// Command drcbench regenerates every experiment of the reproduction: one
// table per paper figure or quantified claim (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	drcbench [-quick] [-run E01,E09] [-workers n]
//	drcbench -json [-o DIR] [-compare BENCH_old.json]
//	drcbench -compare BENCH_old.json
//
//	-quick        smaller chip sizes (fast smoke run)
//	-run          comma-separated experiment ids (default: all)
//	-workers      goroutines building the DIC's per-definition interaction
//	              caches (0 = all cores, 1 = serial); E18 reports serial vs
//	              pooled regardless of this setting
//	-json         run the perfbench kernel suite instead of the experiments and
//	              write a BENCH_<date>.json snapshot (ns/op + allocs/op per
//	              named benchmark) — the repo's perf trajectory artifact
//	-compare      run the kernel suite and print per-benchmark deltas against
//	              this prior snapshot (informational: exit status ignores
//	              regressions; combine with -json to also write the new
//	              snapshot)
//	-o            directory for the JSON snapshot (default ".")
//	-cpuprofile   write a pprof CPU profile of the run
//	-memprofile   write a pprof heap profile at exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/perfbench"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	quick := flag.Bool("quick", false, "smaller workloads")
	run := flag.String("run", "", "comma-separated experiment ids (default all)")
	workers := flag.Int("workers", 0, "goroutines building the DIC's per-definition interaction caches (0 = all cores, 1 = serial)")
	jsonOut := flag.Bool("json", false, "run the kernel benchmark suite and write BENCH_<date>.json")
	compare := flag.String("compare", "", "run the kernel suite and print deltas vs this prior BENCH_*.json snapshot")
	outDir := flag.String("o", ".", "output directory for the -json snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	eval.Workers = *workers

	// Profiling hooks, same contract as dicheck's: hot-path investigation
	// of an experiment or benchmark kernel shouldn't need a throwaway
	// harness. Deferred here (not in main) so every return runs them.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drcbench: cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "drcbench: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "drcbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "drcbench: memprofile: %v\n", err)
			}
		}()
	}

	if *jsonOut || *compare != "" {
		return runBenchSuite(*outDir, *jsonOut, *compare)
	}

	type experiment struct {
		id string
		fn func() (*eval.Table, error)
	}
	q := *quick
	experiments := []experiment{
		{"E01", func() (*eval.Table, error) { return eval.E01(q) }},
		{"E02", eval.E02},
		{"E03", eval.E03},
		{"E04", eval.E04},
		{"E06", func() (*eval.Table, error) { return eval.E06(q) }},
		{"E09", func() (*eval.Table, error) { return eval.E09(q) }},
		{"E10", eval.E10},
		{"E11", eval.E11},
		{"E12", eval.E12},
		{"E13", eval.E13},
		{"E15", eval.E15},
		{"E16", func() (*eval.Table, error) { return eval.E16(q) }},
		{"E17", func() (*eval.Table, error) { return eval.E17(q) }},
		{"E18", func() (*eval.Table, error) { return eval.E18(q) }},
		{"E19", func() (*eval.Table, error) { return eval.E19(q) }},
	}

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		tab, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed = true
			continue
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		return 1
	}
	return 0
}

// runBenchSuite runs the perfbench suite, optionally writing the dated
// JSON artifact (writeJSON) and/or printing deltas against a prior
// snapshot (comparePath). Regressions in the comparison never affect the
// exit status — wall-clock on shared CI runners is advice, not a gate.
func runBenchSuite(dir string, writeJSON bool, comparePath string) int {
	var old perfbench.Snapshot
	if comparePath != "" {
		// Read the baseline before the minute-long run so a bad file
		// fails fast. A missing baseline is not an error: fresh clones
		// and rotated snapshot names should degrade to a plain run, not
		// break CI.
		data, err := os.ReadFile(comparePath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no baseline snapshot at %s; running without comparison (generate one with drcbench -json)\n", comparePath)
			comparePath = ""
		case err != nil:
			fmt.Fprintf(os.Stderr, "drcbench: %v\n", err)
			return 1
		default:
			if old, err = perfbench.ParseSnapshot(data); err != nil {
				fmt.Fprintf(os.Stderr, "drcbench: %s: %v\n", comparePath, err)
				return 1
			}
		}
	}
	fmt.Println("running kernel benchmark suite (this takes a minute)...")
	snap := perfbench.Run(time.Now(), eval.Workers)
	for _, r := range snap.Results {
		fmt.Printf("  %-22s %14.0f ns/op %10d B/op %8d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesOp, r.AllocsOp)
	}
	if comparePath != "" {
		fmt.Println()
		fmt.Print(perfbench.RenderDeltas(old, snap))
	}
	if writeJSON {
		out, err := snap.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "drcbench: %v\n", err)
			return 1
		}
		path := filepath.Join(dir, snap.Filename())
		if err := os.WriteFile(path, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "drcbench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
	}
	return 0
}
