package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// interactionCounters extracts the Stats counters that must not depend on
// how many workers built the definition caches.
func interactionCounters(st Stats) [8]int {
	return [8]int{
		st.InteractionCandidates,
		st.InteractionChecked,
		st.SkippedNoRule,
		st.SkippedSameNetExempt,
		st.SkippedRelated,
		st.SkippedConnectionPairs,
		st.ProcessDowngrades,
		stageChecks(st, "check interactions"),
	}
}

func stageChecks(st Stats, name string) int {
	for _, s := range st.Stages {
		if s.Name == name {
			return s.Checks
		}
	}
	return -1
}

// pinProcs sets GOMAXPROCS, which sizes the engine's pool, to n and
// returns the call that restores it; n = 0 keeps the process's setting.
// No test of the package runs in parallel, so a pinned run sees n.
func pinProcs(n int) (restore func()) {
	if n <= 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// runOn makes one engine run on a pool of n goroutines.
func runOn(n int, run func(*layout.Design) (*Report, error), d *layout.Design) (*Report, error) {
	defer pinProcs(n)()
	return run(d)
}

// requireIdentical runs a cold engine on one goroutine (definition caches
// built serially) and on several pool sizes, and demands identical
// violation lists and identical interaction counters.
func requireIdentical(t *testing.T, label string, d *layout.Design, tc *tech.Technology, opts Options) {
	t.Helper()
	serial, err := runOn(1, NewEngine(tc, opts).Check, d)
	if err != nil {
		t.Fatalf("%s: serial check: %v", label, err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := runOn(workers, NewEngine(tc, opts).Check, d)
		if err != nil {
			t.Fatalf("%s: workers=%d: %v", label, workers, err)
		}
		if !reflect.DeepEqual(serial.Violations, par.Violations) {
			t.Errorf("%s: workers=%d violation list diverges from serial (%d vs %d violations)",
				label, workers, len(par.Violations), len(serial.Violations))
			for i := range serial.Violations {
				if i >= len(par.Violations) || !reflect.DeepEqual(serial.Violations[i], par.Violations[i]) {
					t.Fatalf("%s: first divergence at %d:\n  serial: %v\n  parallel: %v",
						label, i, serial.Violations[i], violationAt(par.Violations, i))
				}
			}
			t.FailNow()
		}
		if sc, pc := interactionCounters(serial.Stats), interactionCounters(par.Stats); sc != pc {
			t.Fatalf("%s: workers=%d stats diverge: serial %v, parallel %v", label, workers, sc, pc)
		}
	}
}

func violationAt(vs []Violation, i int) any {
	if i < len(vs) {
		return vs[i]
	}
	return "(missing)"
}

// TestParallelDeterminismChips covers clean and error-injected generated
// chips at several sizes, under the default options and the ablation and
// metric variants.
func TestParallelDeterminismChips(t *testing.T) {
	tc := tech.NMOS()
	for _, size := range []struct{ rows, cols int }{{2, 3}, {4, 5}, {8, 8}} {
		clean := workload.NewChip(tc, "par-clean", size.rows, size.cols)
		requireIdentical(t, fmt.Sprintf("clean %dx%d", size.rows, size.cols),
			clean.Design, tc, Options{})

		dirty := workload.NewChip(tc, "par-dirty", size.rows, size.cols)
		inj := workload.InjectErrors(dirty, 3*size.rows, 1980)
		if len(inj) == 0 {
			t.Fatal("no errors injected")
		}
		requireIdentical(t, fmt.Sprintf("injected %dx%d", size.rows, size.cols),
			dirty.Design, tc, Options{})
		requireIdentical(t, fmt.Sprintf("injected %dx%d ortho", size.rows, size.cols),
			dirty.Design, tc, Options{Metric: Orthogonal})
		requireIdentical(t, fmt.Sprintf("injected %dx%d no-exemptions", size.rows, size.cols),
			dirty.Design, tc, Options{NoExemptions: true})
	}
}

// TestParallelDeterminismPathologies runs every paper-figure pathology
// through the serial and the pooled engine.
func TestParallelDeterminismPathologies(t *testing.T) {
	for _, p := range workload.AllPathologies() {
		requireIdentical(t, "pathology "+p.Name, p.Design, p.Tech,
			Options{SkipConstruction: true})
	}
}

// The process's own GOMAXPROCS pool must behave like a serial run.
func TestParallelDefaultWorkers(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "par-default", 4, 6)
	workload.InjectErrors(chip, 8, 7)
	serial, err := runOn(1, NewEngine(tc, Options{}).Check, chip.Design)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewEngine(tc, Options{}).Check(chip.Design)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Violations, auto.Violations) {
		t.Fatalf("the GOMAXPROCS pool diverges from serial: %d vs %d violations",
			len(auto.Violations), len(serial.Violations))
	}
}

// The pool is GOMAXPROCS, not the machine's cores: a process pinned to
// one P runs everything on the calling goroutine, one with three splits
// a cold check's phases. A 20×20 chip has some 2 400 instances, enough
// for the signature phase to split.
func TestParallelWorkersFollowGOMAXPROCS(t *testing.T) {
	tc := tech.NMOS()
	d := workload.NewChip(tc, "par-procs", 20, 20).Design
	for _, c := range []struct {
		procs int
		split bool
	}{{1, false}, {3, true}} {
		before := fanned.Load()
		if _, err := runOn(c.procs, NewEngine(tc, Options{}).Check, d); err != nil {
			t.Fatal(err)
		}
		if split := fanned.Load() > before; split != c.split {
			t.Fatalf("GOMAXPROCS=%d: phases split %v, want %v", c.procs, split, c.split)
		}
	}
}

// TestParallelDeterminismNestedOrientations: one cell embedded upright and
// under every orientation, with an upright family nested under a mirrored
// parent (nestedOrientedDesign), so the pooled definition builds read
// child artifacts through both upright and reoriented embeddings at once.
func TestParallelDeterminismNestedOrientations(t *testing.T) {
	tc := tech.NMOS()
	requireIdentical(t, "nested orientations", nestedOrientedDesign(tc), tc, Options{})
	requireIdentical(t, "nested orientations ortho", nestedOrientedDesign(tc), tc, Options{Metric: Orthogonal})
}

// TestParallelDeterminismActiveEdits covers the full warm re-derive on the
// pool. A 32×32 unique-row chip is large enough that every chip-sized
// phase of a root re-derive splits (extraction's are asserted by netlist's
// twin of this test; the interaction stage's signatures here). The first
// step places the oriented blocks under all eight orientations, so
// reoriented families' region columns are read by pooled phases under the
// race detector. Then an active-edit script runs on engines with pools of
// 1, 2 and 7 side by side: after every step the three reports and a cold
// check's have one fingerprint.
func TestParallelDeterminismActiveEdits(t *testing.T) {
	nm := tech.NMOS()
	steps := 14
	if testing.Short() {
		steps = 5
	}
	d := workload.NewChipUnique(nm, "pardet", 32, 32).Design
	blocks := workload.AddOrientedBlocks(d, nm)
	pools := []int{1, 2, 7}
	var engines []*Engine
	for _, w := range pools {
		eng := NewEngine(nm, Options{})
		if _, err := runOn(w, eng.Check, d); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}
	recheck := func(label string) {
		t.Helper()
		before := fanned.Load()
		var reps []*Report
		for k, eng := range engines {
			rep, err := runOn(pools[k], eng.Recheck, d)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", label, pools[k], err)
			}
			reps = append(reps, rep)
		}
		cold, err := NewEngine(nm, Options{}).Check(d)
		if err != nil {
			t.Fatalf("%s: cold: %v", label, err)
		}
		want := FingerprintDigest(cold)
		for k, rep := range reps {
			if FingerprintDigest(rep) != want {
				requireSameReport(t, fmt.Sprintf("%s: workers=%d vs cold", label, pools[k]), rep, cold)
			}
		}
		// The pooled engines re-derive the root (each run resets the edit
		// record the next engine would patch from), and each splits the
		// signatures.
		for k, eng := range engines[1:] {
			if eng.Stats().FullPath == "" {
				t.Fatalf("%s: workers=%d window-patched", label, pools[k+1])
			}
		}
		if got, want := fanned.Load()-before, int64(len(engines)-1); got < want {
			t.Fatalf("%s: %d pooled phases in the interaction stages, want at least %d", label, got, want)
		}
	}
	top := d.Top.Name
	for o := geom.R0; o <= geom.MX270; o++ {
		e := layout.Edit{Op: layout.OpAddCall, Symbol: top, Target: blocks.Name, Orient: o.String(),
			DX: -60000 - 40000*int64(o), DY: -60000, Name: fmt.Sprintf("ob%d", o)}
		if err := layout.ApplyEdit(d, nm, e); err != nil {
			t.Fatal(err)
		}
	}
	recheck("oriented blocks placed")
	script := workload.NewActiveEdits(3)
	applied := 0
	for i := 0; i < steps; i++ {
		e := script.Next(d, nm)
		if layout.ApplyEdit(d, nm, e) != nil {
			continue
		}
		applied++
		recheck(fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol))
	}
	if applied < steps/2 {
		t.Fatalf("script too tame: %d of %d edits applied", applied, steps)
	}
}

// TestPoolSizesCountAlike: the interaction stage's counters do not depend
// on the pool's size either. A twin chip with injected errors is checked
// cold, then takes every step of an active-edit script, on engines with
// pools of 1, 2 and 7; after each run the three count the same signatures,
// signature misses and hits, and interaction caches built and reused. The
// chip's 3 000-odd instances split the signature phase on the pooled
// engines, so a miss adjudicated on one shard while another shard waits
// for the definition's lock is counted once.
func TestPoolSizesCountAlike(t *testing.T) {
	nm := tech.NMOS()
	steps := 14
	if testing.Short() {
		steps = 5
	}
	chip := workload.NewChipUnique(nm, "poolcount", 24, 24)
	workload.InjectErrors(chip, 14, 1)
	d := chip.Design
	pools := []int{1, 2, 7}
	var engines []*Engine
	for range pools {
		engines = append(engines, NewEngine(nm, Options{}))
	}
	type counts struct{ sigs, misses, hits, built, reused int }
	run := func(label string) {
		t.Helper()
		var want counts
		for k, eng := range engines {
			if _, err := runOn(pools[k], eng.Recheck, d); err != nil {
				t.Fatalf("%s: workers=%d: %v", label, pools[k], err)
			}
			st := eng.Stats()
			got := counts{st.Signatures, st.SigMisses, st.SigHits, st.InterBuilt, st.InterReused}
			if k == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: workers=%d counts %+v, workers=1 %+v", label, pools[k], got, want)
			}
		}
	}
	run("cold")
	script := workload.NewActiveEdits(5)
	for i := 0; i < steps; i++ {
		e := script.Next(d, nm)
		if layout.ApplyEdit(d, nm, e) != nil {
			continue
		}
		run(fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol))
	}
}
