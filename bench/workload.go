package main

// The workload contract and the two kinds of run: the timed run that
// yields the end-to-end metrics with tracing off, and the traced run that
// yields the per-layer ones.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

var numCPU = runtime.NumCPU()

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"batch-cold", "edit-loop", "served-poll", "served-churn"}

// workload is one named traffic shape. A value is reusable: setup
// rebuilds everything from the seed, teardown releases it.
type workload interface {
	// setup generates the inputs from the seed, builds the thing under
	// test (boots the daemon, creates and seeds sessions, or runs the
	// engine's first cold check) and runs the warm-up ops. All of it is
	// what setup_s measures.
	setup(ctx context.Context) error
	// clients is the closed-loop caller count.
	clients() int
	// op runs client c's next op; each client calls from one goroutine.
	op(ctx context.Context, c int, tr *tracer) opResult
	// verify runs the correctness checks, ending at a script-cycle
	// boundary so the verdict depends on the seed alone.
	verify(ctx context.Context) (verdict, error)
	// probeDesign is the design the layer probe measures.
	probeDesign() design
	// pid is the process under test (the daemon, or this process).
	pid() int
	teardown()
}

// replayer is a served workload: its traced ops are replayed in-process
// to attribute the client's round trip to layers.
type replayer interface {
	replay(tr *tracer, cnt *engineCounters) (classMS map[string][]float64, err error)
	// entries is what the daemon answered on each traced op.
	entries() []servedEntry
	// daemonMetrics reads the gauges the daemon reports about itself.
	daemonMetrics(ctx context.Context, m map[string]float64) error
}

func newWorkload(name string, seed int64, e env) (workload, error) {
	switch name {
	case "batch-cold":
		return &batchCold{seed: seed}, nil
	case "edit-loop":
		return &editLoop{seed: seed}, nil
	case "served-poll":
		return &servedPoll{seed: seed, env: e}, nil
	case "served-churn":
		return &servedChurn{seed: seed, env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// opResult is one op's outcome: the encoded bytes the caller received,
// or why it failed.
type opResult struct {
	wire int
	err  error
}

// verdict is what a run's outputs came to: the fingerprints of the final
// reports in a fixed order, and their violation count. expected.json
// pins both for the committed seeds.
type verdict struct {
	fps        []string
	violations int
}

func (v *verdict) add(fp string, violations int) {
	v.fps = append(v.fps, fp)
	v.violations += violations
}

func (v verdict) digest() string {
	h := sha256.New()
	for _, fp := range v.fps {
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opSample is one successful op: when it completed, from the start of its
// pass, and how long the caller waited.
type opSample struct {
	endNS int64
	ms    float64
}

// pass is what a closed-loop run of ops observed.
type pass struct {
	ops       []opSample // successful ops, by client
	attempted int
	failed    int
	wireBytes int64
	length    time.Duration // the time the pass was given
	firstErr  error
}

// latencies returns the pass's op latencies, sorted.
func (p pass) latencies() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = o.ms
	}
	sort.Float64s(out)
	return out
}

// runOps drives the workload's clients in a closed loop for d, or until
// each client has run perClient ops (0 = no limit).
func runOps(ctx context.Context, w workload, tr *tracer, d time.Duration, perClient int) pass {
	n := w.clients()
	parts := make([]pass, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for (perClient == 0 || p.attempted < perClient) && time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				r := w.op(ctx, c, tr)
				end := time.Now()
				p.attempted++
				if r.err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = r.err
					}
					continue
				}
				p.ops = append(p.ops, opSample{end.Sub(start).Nanoseconds(), float64(end.Sub(t0).Nanoseconds()) / 1e6})
				p.wireBytes += int64(r.wire)
			}
		}(c)
	}
	wg.Wait()
	out := pass{length: d}
	for _, p := range parts {
		out.ops = append(out.ops, p.ops...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.wireBytes += p.wireBytes
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// A timed run sets the workload up `instances` times and gives each an
// equal share of the clock. setup_s is the median over the set-ups; the
// latency percentiles and the throughput are taken over all timed ops
// pooled. peak_rss_mb is the median over instances of each instance's own
// peak: a daemon is a process of its own, and an in-process instance
// resets this process's high-water mark when it sets up.
const instances = 3

// result is one run's outcome in the shape the driver reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   int                `json:"samples"` // timed ops behind the percentiles
	Digest    string             `json:"digest"`
	Violation int                `json:"violations"`
	Err       string             `json:"error,omitempty"`
}

// fail marks the run incorrect, keeping the first reason.
func (r *result) fail(err error) {
	r.Correct = false
	if r.Err == "" {
		r.Err = err.Error()
	}
}

// check compares the run's verdict with expected.json when the seed is
// listed there.
func (r *result) check(v verdict, verr error, exp expectations) {
	if verr != nil {
		r.fail(verr)
		return
	}
	r.Digest, r.Violation = v.digest(), v.violations
	if want, ok := exp.lookup(r.Seed, r.Workload); ok && (want.Digest != r.Digest || want.Violations != r.Violation) {
		r.fail(fmt.Errorf("%s seed %d: digest %s with %d violations, expected.json has %s with %d",
			r.Workload, r.Seed, r.Digest, r.Violation, want.Digest, want.Violations))
	}
}

// timedRun measures the end-to-end metrics: tracing off, the whole of
// `seconds` on the clock.
func timedRun(ctx context.Context, name string, seed int64, seconds time.Duration, e env, exp expectations) result {
	res := result{Workload: name, Seed: seed, Correct: true, Metrics: map[string]float64{}}
	w, err := newWorkload(name, seed, e)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.fail(err)
		return res
	}
	var setups, rss, all []float64
	var clock float64
	for i := 0; i < instances && res.Correct; i++ {
		t0 := time.Now()
		err := w.setup(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			res.Attempted, res.Failed = res.Attempted+1, res.Failed+1
			res.fail(fmt.Errorf("setup: %w", err))
			w.teardown()
			break
		}
		p := runOps(ctx, w, nil, seconds/instances, 0)
		if kb, err := procStatusKB(w.pid(), "VmHWM"); err != nil {
			res.fail(err)
		} else {
			rss = append(rss, kb/1024)
		}
		res.Attempted, res.Failed, res.Samples = res.Attempted+p.attempted, res.Failed+p.failed, res.Samples+len(p.ops)
		if p.firstErr != nil {
			res.fail(fmt.Errorf("%d of %d ops failed, first: %w", p.failed, p.attempted, p.firstErr))
		}
		all = append(all, p.latencies()...)
		clock += p.length.Seconds()
		v, verr := w.verify(ctx)
		res.check(v, verr, exp)
		w.teardown()
	}
	sort.Float64s(all)
	p50, _ := percentile(all, 0.50)
	p95, ok := percentile(all, 0.95)
	if !ok {
		res.fail(fmt.Errorf("%d timed ops leave fewer than %d samples beyond p95", len(all), minBeyond))
	}
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["op_p50_ms"] = p50
	res.Metrics["op_p95_ms"] = p95
	res.Metrics["ops_per_s"] = float64(len(all)) / clock
	res.Metrics["peak_rss_mb"] = median(rss)
	return res
}

// Shares of `seconds` a traced run spends on its untraced reference pass
// and on the traced pass; the probe and the replay take what is left.
const (
	untracedShare = 0.30
	tracedShare   = 0.30
	tracedOps     = 1000 // each pass runs at most this many ops
	replayOps     = 200  // a served workload's replay covers the first of them
)

// tracedRun measures the per-layer metrics. It runs the first ops of the
// script twice from a fresh setup — tracing off, then on — so the two
// medians differ by the tracing overhead alone; replays a served
// workload's traced ops in-process; and fills in, from a probe of the
// workload's design, every layer the ops themselves do not call.
func tracedRun(ctx context.Context, name string, seed int64, seconds time.Duration, e env, exp expectations) result {
	res := result{Workload: name, Seed: seed, Trace: 1, Correct: true, Attempted: 1, Failed: 1, Metrics: map[string]float64{}}
	w, err := newWorkload(name, seed, e)
	if err != nil {
		res.fail(err)
		return res
	}
	defer w.teardown()
	if err := w.setup(ctx); err != nil {
		res.fail(fmt.Errorf("setup: %w", err))
		return res
	}
	perClient := tracedOps / w.clients()
	var ms0, ms1 runtime.MemStats
	runtime.GC() // both passes start from a collected heap
	runtime.ReadMemStats(&ms0)
	plain := runOps(ctx, w, nil, time.Duration(untracedShare*float64(seconds)), perClient)
	runtime.ReadMemStats(&ms1)

	w.teardown()
	if err := w.setup(ctx); err != nil {
		res.fail(fmt.Errorf("setup: %w", err))
		return res
	}
	tr := newTracer()
	runtime.GC()
	traced := runOps(ctx, w, tr, time.Duration(tracedShare*float64(seconds)), (plain.attempted+w.clients()-1)/w.clients())
	res.Attempted, res.Failed, res.Samples = plain.attempted+traced.attempted, plain.failed+traced.failed, len(plain.ops)
	for _, p := range []pass{plain, traced} {
		if p.firstErr != nil {
			res.fail(fmt.Errorf("%d of %d ops failed, first: %w", p.failed, p.attempted, p.firstErr))
		}
	}
	v, verr := w.verify(ctx)
	res.check(v, verr, exp)

	// Layer numbers, least specific first: the design probe, then the
	// in-process replay of a served workload's ops, then the ops' own spans.
	m, err := probe(ctx, w.probeDesign(), e)
	if err != nil {
		res.fail(fmt.Errorf("probe: %w", err))
		return res
	}
	cnt := new(engineCounters)
	classMS := map[string][]float64{}
	allocOps := plain.attempted
	switch w := w.(type) {
	case replayer:
		rt := newTracer()
		runtime.ReadMemStats(&ms0)
		if classMS, err = w.replay(rt, cnt); err != nil {
			res.fail(err)
			return res
		}
		runtime.ReadMemStats(&ms1)
		allocOps = len(w.entries())
		layerMetrics(m, rt.spans)
		clientMetrics(m, tr.spans, rt.spans, w.entries())
		if err := w.daemonMetrics(ctx, m); err != nil {
			res.fail(err)
		}
		if err := rt.writeFile(filepath.Join(e.out, "trace-"+name+"-replica.json")); err != nil {
			res.fail(err)
		}
	case *editLoop:
		cnt, classMS = &w.cnt, w.r.classMS
		cnt.noteContexts(w.r.eng.Stats())
		layerMetrics(m, tr.spans)
	default:
		layerMetrics(m, tr.spans)
	}
	cnt.metrics(m)
	for class, ms := range classMS {
		m["core.recheck_"+class+"_ms"] = median(ms)
	}
	if allocOps > 0 {
		m["core.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(allocOps)
	}
	plainMS := plain.latencies()
	p50plain, _ := percentile(plainMS, 0.50)
	p50traced, _ := percentile(traced.latencies(), 0.50)
	m["trace.overhead_share"] = (p50traced - p50plain) / p50plain
	m["client.op_p99_ms"], _ = percentile(plainMS, 0.99)
	m["client.fail_share"] = share(float64(res.Failed), float64(res.Attempted))
	m["client.wire_kb_per_op"] = share(float64(plain.wireBytes)/1000, float64(len(plain.ops)))
	if err := tr.writeFile(filepath.Join(e.out, "trace-"+name+".json")); err != nil {
		res.fail(err)
	}
	res.Metrics = m
	return res
}

// layerMetrics turns spans into layer numbers: per span name, the median
// over ops of the self time spent under that name. The check span's self
// time is the engine work no stage accounts for; the op span's self time
// is what no layer span accounts for at all.
func layerMetrics(m map[string]float64, spans []span) {
	self := layerSelfMS(spans)
	total := spanTotalsMS(spans)
	for name, ms := range self {
		switch name {
		case "op", "aux":
		case "core.check":
			m["core.unstaged_ms"] = median(ms)
			m["core.check_ms"] = median(total[name])
		case "layout.apply_edit":
			m["layout.apply_edit_us"] = median(ms) * 1000
		default:
			m[name+"_ms"] = median(ms)
		}
	}
	if ops := total["op"]; len(ops) > 0 {
		var covered, all float64
		for i, t := range ops {
			all += t
			covered += t - self["op"][i]
		}
		m["trace.coverage_share"] = share(covered, all)
	}
}
