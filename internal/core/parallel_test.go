package core

import (
	"fmt"
	"reflect"
	"testing"

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

// requireIdentical runs a cold engine with Workers:1 (definition caches
// built serially) and with several prebuild-pool sizes, and demands
// identical violation lists and identical interaction counters.
func requireIdentical(t *testing.T, label string, d *layout.Design, tc *tech.Technology, opts Options) {
	t.Helper()
	opts.Workers = 1
	serial, err := NewEngine(tc, opts).Check(d)
	if err != nil {
		t.Fatalf("%s: serial check: %v", label, err)
	}
	for _, workers := range []int{2, 3, 8} {
		opts.Workers = workers
		par, err := NewEngine(tc, opts).Check(d)
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

// Workers:0 (all cores) must behave like any other explicit count.
func TestParallelDefaultWorkers(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "par-default", 4, 6)
	workload.InjectErrors(chip, 8, 7)
	serial, err := NewEngine(tc, Options{Workers: 1}).Check(chip.Design)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewEngine(tc, Options{}).Check(chip.Design)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Violations, auto.Violations) {
		t.Fatalf("Workers:0 diverges from serial: %d vs %d violations",
			len(auto.Violations), len(serial.Violations))
	}
}
