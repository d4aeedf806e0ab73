// Command bench is the repository's one benchmark: four named workloads
// over the whole checker — parser, engine, wire projection, daemon — seven
// numbers a caller would feel, and a per-layer budget from a traced run.
// bench/run.sh builds it and cmd/dicheckd and runs it; see README.md.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa]
//
// Each run prints one line per metric — <workload> <metric> <value>
// <unit> — then, as the last line, the run's result as one JSON object,
// and exits non-zero when any output was wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// spec is BENCHMARK.json: the one place metric names, units, directions
// and regression bounds are fixed.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s spec) metrics(trace int) []metricSpec {
	if trace == 1 {
		return s.PerLayer
	}
	return s.EndToEnd
}

// expectations is expected.json: per committed seed and workload, the
// verdict digest and violation count a correct run ends with.
type expectations map[string]map[string]expectation

type expectation struct {
	Digest     string `json:"digest"`
	Violations int    `json:"violations"`
}

func loadExpectations(path string) (expectations, error) {
	var e expectations
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func (e expectations) lookup(seed int64, workload string) (expectation, bool) {
	v, ok := e[fmt.Sprint(seed)][workload]
	return v, ok
}

// wireMetric and wireResult are the last line of a run's output, in the
// shape the driver reads.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints the run: one line per metric the spec names for this kind
// of run, the verdict, and the JSON result line. A metric the spec names
// and the run did not produce makes the run incorrect.
func report(res *result, sp spec) {
	out := wireResult{Metrics: map[string]wireMetric{}}
	for _, ms := range sp.metrics(res.Trace) {
		v, ok := res.Metrics[ms.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(fmt.Errorf("metric %s was not measured", ms.Name))
			continue
		}
		out.Metrics[ms.Name] = wireMetric{v, ms.Unit}
		note := ""
		if ms.Name == "op_p95_ms" || ms.Name == "client.op_p99_ms" {
			note = fmt.Sprintf("  (n=%d)", res.Samples)
		}
		fmt.Printf("%s %s %.6g %s%s\n", res.Workload, ms.Name, v, ms.Unit, note)
	}
	fmt.Printf("%s verdict %s violations=%d attempted=%d failed=%d\n", res.Workload, res.Digest, res.Violation, res.Attempted, res.Failed)
	if res.Err != "" {
		fmt.Printf("%s INCORRECT: %s\n", res.Workload, res.Err)
	}
	out.Correct, out.Attempted, out.Failed = res.Correct, res.Attempted, res.Failed
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadFlag := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
	aa := flag.Bool("aa", false, "run the timed set twice and compare the two against each metric's bound")
	dicheckd := flag.String("dicheckd", "", "path of the built cmd/dicheckd binary (run.sh passes it)")
	outDir := flag.String("out", "out", "directory for result.json, traces, daemon logs and scratch")
	specPath := flag.String("spec", "../BENCHMARK.json", "path of BENCHMARK.json (expected.json is read from the working directory)")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exp, err := loadExpectations("expected.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	out, err := filepath.Abs(*outDir)
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e := env{dicheckd: *dicheckd, out: out}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	d := time.Duration(*seconds * float64(time.Second))
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}

	// SIGINT/SIGTERM cancel the context: ops fail, the run unwinds through
	// its deferred teardown, and the daemon child is killed and reaped.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d %s served-clients=%d seed=%d seconds=%g\n",
		numCPU, runtime.GOMAXPROCS(0), runtime.Version(), servedClients(), *seed, *seconds)
	if *aa {
		return runAA(ctx, names, *seed, d, e, sp, exp)
	}
	var results []result
	ok := true
	for _, name := range names {
		for _, t := range []int{0, 1} {
			if *trace >= 0 && *trace != t {
				continue
			}
			run := timedRun
			if t == 1 {
				run = tracedRun
			}
			res := run(ctx, name, *seed, d, e, exp)
			report(&res, sp)
			results = append(results, res)
			ok = ok && res.Correct
		}
	}
	if err := writeJSON(filepath.Join(out, "result.json"), results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAA is the agreement check: the timed set twice, back to back, on the
// same code, and for each workload × end-to-end metric the relative change
// from the first set to the second, in the direction that counts as worse,
// against the metric's bound. It is the noise floor later changes quote.
func runAA(ctx context.Context, names []string, seed int64, d time.Duration, e env, sp spec, exp expectations) int {
	var sets [2][]result
	ok := true
	for i := range sets {
		for _, name := range names {
			res := timedRun(ctx, name, seed, d, e, exp)
			report(&res, sp)
			sets[i] = append(sets[i], res)
			ok = ok && res.Correct
		}
		if err := writeJSON(filepath.Join(e.out, fmt.Sprintf("aa-%d.json", i+1)), sets[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("\n%-13s %-12s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for w := range names {
		a, b := sets[0][w], sets[1][w]
		for _, ms := range sp.EndToEnd {
			va, vb := a.Metrics[ms.Name], b.Metrics[ms.Name]
			worse := (vb - va) / va
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > ms.Bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-13s %-12s %12.6g %12.6g %+8.1f%% %6.0f%%%s\n", a.Workload, ms.Name, va, vb, 100*worse, 100*ms.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
