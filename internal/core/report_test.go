package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func TestReportErrorsAndClean(t *testing.T) {
	rep := &Report{}
	if !rep.Clean() {
		t.Fatal("empty report not clean")
	}
	if got := rep.Errors(); len(got) != 0 {
		t.Fatalf("empty report has errors: %v", got)
	}

	rep.Violations = []Violation{
		{Rule: "W.NM", Severity: Warning},
		{Rule: "S.ND.ND.diff", Severity: Error},
		{Rule: "NET.OPEN", Severity: Warning},
		{Rule: "DEV.ACCIDENTAL", Severity: Error},
	}
	errs := rep.Errors()
	if len(errs) != 2 {
		t.Fatalf("errors = %d, want 2", len(errs))
	}
	for _, v := range errs {
		if v.Severity != Error {
			t.Fatalf("Errors() returned a %v", v.Severity)
		}
	}
	if rep.Clean() {
		t.Fatal("report with errors claims clean")
	}

	rep.Violations = []Violation{{Rule: "NET.OPEN", Severity: Warning}}
	if !rep.Clean() {
		t.Fatal("warnings alone must not break Clean")
	}
}

func TestOptionsWorkerCount(t *testing.T) {
	cases := []struct {
		workers int
		want    int
	}{
		{0, runtime.NumCPU()},  // default: all cores
		{-3, runtime.NumCPU()}, // nonsense values fall back too
		{1, 1},                 // definition caches built serially
		{7, 7},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.workers}).workerCount(); got != c.want {
			t.Errorf("workerCount(Workers=%d) = %d, want %d", c.workers, got, c.want)
		}
	}
}

// TestSortViolationsTotalOrder: the comparator must induce a total order
// over distinct violations — equal-prefix ties (same rule, location
// corner, detail) must still sort deterministically by the remaining
// fields, or reports assembled in different discovery orders could differ
// byte-for-byte after sorting. Shuffling any violation set and re-sorting
// must reproduce one canonical order.
func TestSortViolationsTotalOrder(t *testing.T) {
	base := Violation{
		Rule:   "S.NM.NM.diff",
		Detail: "tie",
		Where:  geom.R(0, 0, 100, 100),
		Path:   "r0.c1",
	}
	// Violations that tie on the legacy key (rule, symbol, path, X1, Y1,
	// detail) and differ only in later fields.
	tied := []Violation{base, base, base, base}
	tied[1].Where.X2 = 200
	tied[2].Severity = Warning
	tied[3].Layer = tech.LayerID(3)
	tied = append(tied, Violation{
		Rule: "S.NM.NM.diff", Detail: "tie", Where: geom.R(0, 0, 100, 100),
		Path: "r0.c1", Nets: []string{"a", "b"},
	})

	var canonical []Violation
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		vs := make([]Violation, len(tied))
		copy(vs, tied)
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		sortViolations(vs)
		if canonical == nil {
			canonical = vs
			continue
		}
		if !reflect.DeepEqual(vs, canonical) {
			t.Fatalf("trial %d: sort order not canonical:\n got %v\nwant %v", trial, vs, canonical)
		}
	}

	// The comparator must agree with itself under argument swap.
	for i := range tied {
		for j := range tied {
			ij := CompareViolations(&tied[i], &tied[j])
			ji := CompareViolations(&tied[j], &tied[i])
			if (ij < 0) != (ji > 0) && !(ij == 0 && ji == 0) {
				t.Fatalf("comparator asymmetric for %d,%d: %d vs %d", i, j, ij, ji)
			}
			if i == j && ij != 0 {
				t.Fatalf("violation %d not equal to itself", i)
			}
		}
	}
}
