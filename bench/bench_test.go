package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:199], 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs, 0.50); !ok || v != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples must be refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Op: 0, Parent: 0, StartNS: 10, EndNS: 40},  // sibling
		{Name: "b", Op: 0, Parent: 0, StartNS: 50, EndNS: 90},  // sibling with children
		{Name: "b1", Op: 0, Parent: 2, StartNS: 55, EndNS: 65}, // nested
		{Name: "b2", Op: 0, Parent: 2, StartNS: 60, EndNS: 80}, // overlaps b1: counted once
		{Name: "op", Op: 1, Parent: -1, StartNS: 100, EndNS: 130},
		{Name: "a", Op: 1, Parent: 5, StartNS: 100, EndNS: 140}, // clipped to its parent
	}
	want := []int64{30, 30, 15, 10, 20, 0, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	perOp := layerSelfMS(spans)
	if a := perOp["a"]; len(a) != 2 || a[0] != 30e-6 || a[1] != 40e-6 {
		t.Errorf("per-op self time of layer a = %v, want [3e-05 4e-05]", a)
	}

	tr := newTracer()
	root := tr.begin("core.check", 0, -1)
	tr.spans[root].StartNS, tr.spans[root].EndNS = 0, 100
	tr.child("s1", root, 30)
	tr.child("s2", root, 90) // laid after s1, clipped to the parent's end
	if s := tr.spans[2]; s.StartNS != 30 || s.EndNS != 100 {
		t.Errorf("second reported child spans %d..%d, want 30..100", s.StartNS, s.EndNS)
	}
	if self := selfTimes(tr.spans)[root]; self != 0 {
		t.Errorf("fully covered parent has self time %d", self)
	}
	var off *tracer
	off.end(off.begin("x", 0, -1)) // tracing off records nothing and must not panic
}

// inputsJSON renders everything a seed generates, in the form the program
// under test receives it.
func inputsJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	cold, err := batchColdInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	edit, script, err := editLoopInputs(seed, 12)
	if err != nil {
		t.Fatal(err)
	}
	poll, sessions, err := servedPollInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := servedChurnInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal([]any{cold, edit, script, poll, sessions, churn})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := inputsJSON(t, 7), inputsJSON(t, 7), inputsJSON(t, 8)
	if string(a) != string(b) {
		t.Error("the same seed generated different inputs")
	}
	if string(a) == string(c) {
		t.Error("different seeds generated the same inputs")
	}
}

func TestScriptsReturnToStart(t *testing.T) {
	in, script, err := editLoopInputs(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplica(nil, 0, -1, in, false, new(engineCounters))
	if err != nil {
		t.Fatal(err)
	}
	start := core.FingerprintDigest(r.rep)
	shares := map[string]int{}
	moved := false
	for i, op := range script {
		if err := r.edit(nil, 0, -1, op.Edits, op.Class); err != nil {
			t.Fatalf("edit-loop op %d (%s): %v", i, op.Class, err)
		}
		shares[op.Class]++
		moved = moved || core.FingerprintDigest(r.rep) != start
	}
	if got := core.FingerprintDigest(r.rep); got != start {
		t.Errorf("edit-loop cycle ends at %s, started at %s", got, start)
	}
	if !moved {
		t.Error("edit-loop script never changed the report")
	}
	if shares[classWindow] != 240 || shares[classSymbol] != 100 || shares[classStruct] != 60 {
		t.Errorf("edit-loop class counts %v, want window 240, symbol 100, struct 60", shares)
	}

	poll, sessions, err := servedPollInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newReplica(nil, 0, -1, poll, true, new(engineCounters))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.edit(nil, 0, -1, sessions[0].Seed, ""); err != nil {
		t.Fatal(err)
	}
	home := core.FingerprintDigest(p.rep)
	if n := len(p.rep.Violations); n < slivers {
		t.Errorf("seeded poll session reports %d violations, want at least one per sliver (%d)", n, slivers)
	}
	for visit := 0; visit < 2; visit++ {
		if err := p.edit(nil, 0, -1, sessions[0].pollMove(visit), classWindow); err != nil {
			t.Fatal(err)
		}
		if got := core.FingerprintDigest(p.rep); (got == home) != (visit == 1) {
			t.Errorf("after visit %d the probe is home=%v", visit, got == home)
		}
	}
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		spec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %v", len(sp.Workloads), workloadNames)
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	seen := map[string]bool{}
	for _, ms := range append(sp.EndToEnd, sp.PerLayer...) {
		if seen[ms.Name] {
			t.Errorf("metric %s listed twice", ms.Name)
		}
		seen[ms.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}
}

// TestSmoke runs each in-process workload for a second and expects every
// end-to-end metric of BENCHMARK.json, finite. A second is too short for a
// p95 on batch-cold, so the run's own verdict on itself is not asserted.
func TestSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("run with -short: the full benchmark is bench/run.sh")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"batch-cold", "edit-loop"} {
		res := timedRun(context.Background(), name, 1, time.Second, env{out: t.TempDir()}, nil)
		if res.Digest == "" {
			t.Errorf("%s: no verdict: %s", name, res.Err)
		}
		for _, ms := range sp.EndToEnd {
			if v, ok := res.Metrics[ms.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: metric %s = %v (present=%v), want a positive finite number", name, ms.Name, v, ok)
			}
		}
	}
}
