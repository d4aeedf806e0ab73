package layout_test

import (
	"testing"

	"repro/internal/cif"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// TestStatsDoublingHierarchy: workload.DoublingCIF(n) defines n symbols —
// the first holds one box, each later one calls the previous twice — and a
// top that calls the last once, so its flattened counts are known in
// closed form: 2^(n-1) boxes, and 2(n-1)+1 call sites over n+1 symbols.
func TestStatsDoublingHierarchy(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12} {
		d, err := cif.Parse(workload.DoublingCIF(n), tech.NMOS(), "doubling")
		if err != nil {
			t.Fatal(err)
		}
		want := layout.Stats{Symbols: n + 1, Elements: 1, Calls: 2*(n-1) + 1, FlatElements: 1 << (n - 1)}
		if got := d.Stats(); got != want {
			t.Fatalf("%d levels: Stats = %+v, want %+v", n, got, want)
		}
	}
}
