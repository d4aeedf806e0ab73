// Command drcbench regenerates every experiment of the reproduction: one
// table per paper figure or quantified claim. The experiments live in
// internal/eval/experiments.go, where each E.. function's doc comment
// names the figure or claim it reproduces.
//
// Usage:
//
//	drcbench [-quick] [-run E01,E09] [-workers n]
//
//	-quick        smaller chip sizes (fast smoke run)
//	-run          comma-separated experiment ids (default: all)
//	-workers      goroutines building the DIC's per-definition interaction
//	              caches (0 = all cores, 1 = serial); E18 reports serial vs
//	              pooled regardless of this setting
//	-cpuprofile   write a pprof CPU profile of the run
//	-memprofile   write a pprof heap profile at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/eval"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	quick := flag.Bool("quick", false, "smaller workloads")
	run := flag.String("run", "", "comma-separated experiment ids (default all)")
	workers := flag.Int("workers", 0, "goroutines building the DIC's per-definition interaction caches (0 = all cores, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	eval.Workers = *workers

	// Profiling hooks, same contract as dicheck's: hot-path investigation
	// of an experiment shouldn't need a throwaway harness. Deferred here
	// (not in main) so every return runs them.
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
