// Command drcbench regenerates the paper tables of the reproduction: one
// table per paper figure or quantified claim. The experiments live in
// internal/eval/experiments.go, where each E.. function's doc comment
// names the figure or claim it reproduces. Timings come from the bench/
// module (bash bench/run.sh); hot paths are profiled with
// dicheck -cpuprofile or go test -cpuprofile.
//
// Usage:
//
//	drcbench [-quick] [-run E01,E09]
//
//	-quick   smaller chip sizes (fast smoke run)
//	-run     comma-separated experiment ids (default: all); an id that
//	         names no experiment is a usage error (exit 2)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/eval"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "smaller workloads")
	run := fs.String("run", "", "comma-separated experiment ids (default all)")
	if err := fs.Parse(args); err != nil {
		return 2
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
	}

	want := map[string]bool{}
	if *run != "" {
		known := map[string]bool{}
		for _, e := range experiments {
			known[e.id] = true
		}
		var unknown []string
		for _, id := range strings.Split(*run, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !known[id] {
				unknown = append(unknown, fmt.Sprintf("%q", id))
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "drcbench: -run: no experiment %s\n", strings.Join(unknown, ", "))
			return 2
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		tab, err := e.fn()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "%s\n\n", tab.Render())
	}
	if failed {
		return 1
	}
	return 0
}
