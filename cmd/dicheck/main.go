// Command dicheck runs layout verification on an extended-CIF file.
//
// By default it runs the design-integrity checker (the paper's
// hierarchical pipeline); -flat runs the traditional mask-level baseline
// instead, and -both runs the two side by side for comparison.
//
// Usage:
//
//	dicheck [flags] layout.cif
//	dicheck -validate rules.deck...
//	dicheck -serve URL [-session NAME] [-edits FILE] [layout.cif]
//
//	-tech NAME           shipped technology (default nmos; see -tech help)
//	-deck FILE           load the technology from a rule deck instead
//	-validate            validate rule decks given as arguments and exit
//	-flat                run only the traditional baseline
//	-both                run both checkers
//	-metric euclid|ortho spacing metric for the DIC (default euclid)
//	-noconstruct         skip the non-geometric construction rules (the
//	                     bipolar demo workload needs this: its device
//	                     terminals are deliberately unwired)
//	-v                   print every violation, not just the summary
//	-netlist             print the extracted hierarchical net list
//	-stats               print per-stage statistics
//	-json                emit the report as machine-readable JSON
//	-edits FILE          apply the JSON edit script to the design before
//	                     checking (offline), or to the served session
//	-repeat n            run the engine n times (cold + warm replays),
//	                     printing per-run timings and cache stats
//	-serve URL           check through a running dicheckd instead of
//	                     in-process: one-shot (create, report, delete)
//	                     unless -session names a persistent session
//	-session NAME        with -serve: reuse (or create) the named session
//	                     and keep it alive after the run
//	-cpuprofile FILE     write a pprof CPU profile of the run
//	-memprofile FILE     write a pprof heap profile at exit
//
// Exit codes (so CI and scripts can branch without parsing output):
//
//	0  the checked design is clean (no error-severity violations)
//	1  the checker ran and found violations
//	2  usage, parse, or I/O error (bad flags, unreadable CIF, invalid
//	   deck, unreachable server)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	dic "repro"
	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/device"
	"repro/internal/flat"
	"repro/internal/process"
	"repro/internal/tech"
)

func main() {
	os.Exit(run())
}

// run holds main's body so profile-writing defers fire before the process
// exits with the report's status code.
func run() int {
	techName := flag.String("tech", "nmos",
		fmt.Sprintf("technology: %s", strings.Join(tech.Names(), ", ")))
	deckFile := flag.String("deck", "", "load the technology from a rule deck file instead of -tech")
	validate := flag.Bool("validate", false, "validate the rule decks given as arguments, then exit")
	flatOnly := flag.Bool("flat", false, "run only the traditional mask-level baseline")
	both := flag.Bool("both", false, "run both checkers")
	metric := flag.String("metric", "euclid", "DIC spacing metric: euclid or ortho")
	verbose := flag.Bool("v", false, "print every violation")
	showNetlist := flag.Bool("netlist", false, "print the extracted net list")
	showStats := flag.Bool("stats", false, "print per-stage statistics")
	noConstruct := flag.Bool("noconstruct", false, "skip the non-geometric construction rules (fanout, rails)")
	procModel := flag.Bool("process", false, "give spacing violations a second opinion from the Eq.1 process model")
	jsonOut := flag.Bool("json", false, "emit the report as machine-readable JSON")
	repeat := flag.Int("repeat", 0, "run the engine this many times, printing per-run timings and cache stats (0 = one quiet run)")
	editsFile := flag.String("edits", "", "apply this JSON edit script before checking (or to the served session)")
	serve := flag.String("serve", "", "check through the dicheckd at this URL instead of in-process")
	session := flag.String("session", "", "with -serve: reuse (or create) this named persistent session")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dicheck [flags] layout.cif")
		fmt.Fprintln(os.Stderr, "       dicheck -validate rules.deck...")
		fmt.Fprintln(os.Stderr, "       dicheck -serve URL [-session NAME] [-edits FILE] [layout.cif]")
		fmt.Fprintln(os.Stderr, "exit codes: 0 = clean, 1 = violations found, 2 = usage/parse error")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Profiling hooks: hot-path investigation shouldn't require writing a
	// throwaway test harness around the checker.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dicheck: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dicheck: memprofile: %v\n", err)
			}
		}()
	}

	if *validate {
		files := flag.Args()
		if *deckFile != "" {
			files = append([]string{*deckFile}, files...)
		}
		if len(files) == 0 {
			fatalf("-validate needs at least one deck file")
		}
		return validateDecks(files)
	}

	if *serve != "" {
		return runServed(servedRun{
			url:         *serve,
			session:     *session,
			editsFile:   *editsFile,
			cifPath:     flag.Arg(0),
			tech:        *techName,
			deckFile:    *deckFile,
			metric:      *metric,
			noConstruct: *noConstruct,
			jsonOut:     *jsonOut,
			verbose:     *verbose,
		})
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	tc, err := dic.ResolveTechnology(*techName, *deckFile)
	if err != nil {
		fatalf("%v", err)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	design, err := cif.Parse(string(src), tc, flag.Arg(0))
	if err != nil {
		fatalf("parse: %v", err)
	}
	if *editsFile != "" {
		// Offline replay of an edit script: the same mutations a served
		// session applies, so fingerprints are comparable across the two.
		if err := applyEditScript(design, tc, *editsFile); err != nil {
			fatalf("%v", err)
		}
	}
	st := design.Stats()
	if !*jsonOut {
		fmt.Printf("design %q: %d symbols, %d elements, %d flat elements, %d devices\n",
			design.Name, st.Symbols, st.Elements, st.FlatElements, st.FlatDevices)
	}

	exitCode := 0
	if !*flatOnly {
		opts := core.Options{SkipConstruction: *noConstruct}
		if *metric == "ortho" {
			opts.Metric = core.Orthogonal
		}
		if *procModel {
			m := process.DefaultModel()
			opts.ProcessSpacing = &m
			opts.ProcessMargin = 100
		}
		// One engine either way. The first run is cold and fills the
		// definition caches; with -repeat the following runs replay them —
		// the shape of a long-lived checking service between edits — and
		// each run's timing and cache stats are reported.
		eng := core.NewEngine(tc, opts)
		var rep *core.Report
		for i := 0; i < max(1, *repeat); i++ {
			start := time.Now()
			var err error
			if rep, err = eng.Recheck(design); err != nil {
				fatalf("check: %v", err)
			}
			if *repeat > 0 && !*jsonOut {
				fmt.Printf("engine run %d: %v (%s)\n", i+1, time.Since(start).Round(time.Microsecond), eng.Stats())
			}
		}
		if *jsonOut {
			var statsOf *core.Engine // a one-shot report carries no engine stats
			if *repeat > 0 {
				statsOf = eng
			}
			if err := printJSON(rep, statsOf); err != nil {
				fatalf("json: %v", err)
			}
		} else {
			printDICReport(rep, *verbose, *showStats, *showNetlist)
		}
		if !rep.Clean() {
			exitCode = 1
		}
	}
	if *flatOnly || *both {
		frep, err := flat.Check(design, tc, flat.Options{})
		if err != nil {
			fatalf("flat check: %v", err)
		}
		fmt.Printf("\ntraditional baseline: %d violations in %v (%d components)\n",
			len(frep.Violations), frep.Duration, frep.Components)
		if *verbose {
			for _, v := range frep.Violations {
				fmt.Printf("  %v\n", v)
			}
		} else {
			printRuleCounts(countFlatRules(frep.Violations))
		}
		// Exit-code contract: 1 whenever any checker that ran found
		// violations, regardless of which combination was selected.
		if len(frep.Violations) > 0 {
			exitCode = 1
		}
	}
	return exitCode
}

func printDICReport(rep *core.Report, verbose, stats, nets bool) {
	errs := rep.Errors()
	warns := len(rep.Violations) - len(errs)
	fmt.Printf("design-integrity check: %d errors, %d warnings\n", len(errs), warns)
	if len(rep.Violations) > 0 {
		printClassCounts(core.CountByClass(rep.Violations))
	}
	if verbose {
		for _, v := range rep.Violations {
			fmt.Printf("  %v\n", v)
		}
	} else {
		printRuleCounts(core.CountByRule(rep.Violations))
	}
	if stats {
		fmt.Println("stages:")
		for _, s := range rep.Stats.Stages {
			fmt.Printf("  %-32s %10v  %6d checks  %4d violations\n",
				s.Name, s.Duration, s.Checks, s.Violations)
		}
		st := rep.Stats
		fmt.Printf("definition-level work: %d elements + %d device defs (chip has %d device instances)\n",
			st.ElementsChecked, st.SymbolDefsChecked, st.DeviceInstances)
		fmt.Printf("interactions: %d candidates -> %d measured (skips: %d no-rule, %d same-net, %d related, %d connection)\n",
			st.InteractionCandidates, st.InteractionChecked,
			st.SkippedNoRule, st.SkippedSameNetExempt, st.SkippedRelated, st.SkippedConnectionPairs)
	}
	if nets && rep.Netlist != nil {
		fmt.Printf("netlist: %s\n", rep.Netlist.Stats())
		for i := range rep.Netlist.Nets {
			n := &rep.Netlist.Nets[i]
			fmt.Printf("  %-24s %2d elements %2d terminals %v\n",
				n.Name, n.Elements, len(n.Terminals), rep.Netlist.Signature(n.ID))
		}
	}
}

// printClassCounts prints the one-line per-class summary, the same tally
// the wire report carries in its "classes" field.
func printClassCounts(classes map[string]int) {
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, c := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", c, classes[c]))
	}
	fmt.Printf("classes: %s\n", strings.Join(parts, " "))
}

func printRuleCounts(counts map[string]int) {
	rules := make([]string, 0, len(counts))
	for r := range counts {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Printf("  %-24s %d\n", r, counts[r])
	}
}

func countFlatRules(vs []flat.Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Rule]++
	}
	return out
}

// validateDecks runs the full validation over each deck, printing every
// problem, and returns the exit code (1 if any deck has errors).
func validateDecks(files []string) int {
	code := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Printf("%s: %v\n", path, err)
			code = 1
			continue
		}
		d, err := deck.Parse(string(src))
		if err != nil {
			fmt.Printf("%s: %v\n", path, err)
			code = 1
			continue
		}
		_, probs, err := tech.FromDeck(d, device.Classes())
		for _, p := range probs {
			fmt.Printf("%s: %v\n", path, p)
		}
		if err != nil {
			code = 1
			continue
		}
		fmt.Printf("%s: ok (%q, %d layers, %d cells, %d devices, %d warnings)\n",
			path, d.Name, len(d.Layers), len(d.Spaces), len(d.Devices), len(probs))
	}
	return code
}

func fatalf(format string, args ...any) {
	// Hard exits skip run()'s defers; flush an in-flight CPU profile so
	// -cpuprofile never leaves a truncated file (no-op when not profiling).
	pprof.StopCPUProfile()
	fmt.Fprintf(os.Stderr, "dicheck: "+format+"\n", args...)
	os.Exit(2)
}
