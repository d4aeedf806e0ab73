package netlist_test

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// engineCache returns the extraction cache a check engine owns. The engine
// exposes none of its state, so the test reads the field it keeps it in.
func engineCache(t *testing.T, e *core.Engine) *netlist.Cache {
	t.Helper()
	f := reflect.ValueOf(e).Elem().FieldByName("cache")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*netlist.Cache)(nil)) {
		t.Fatal("core.Engine keeps no *netlist.Cache in a field named cache")
	}
	return *(**netlist.Cache)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestEngineEntriesAgeOnCacheHorizon: the check engine keeps its stage-1
// and layer-rule results on the extraction cache's own entries, so they
// age on the cache's one horizon. An edit of a called definition undone
// within the horizon finds its results where it left them; fifty drifting
// edits of it — every own state new, every run a root build — leave at
// most EvictAge own entries beyond the cold run's, and the first of those
// states is retired.
func TestEngineEntriesAgeOnCacheHorizon(t *testing.T) {
	tc := tech.NMOS()
	d := workload.NewChipUnique(tc, "horizon", 3, 4).Design
	row, ok := d.Symbol("row1")
	if !ok || row.IsPrimitive() || row == d.Top {
		t.Fatal("no called composite symbol row1")
	}
	eng := core.NewEngine(tc, core.Options{})
	c := engineCache(t, eng)
	run := func() {
		t.Helper()
		if _, err := eng.Recheck(d); err != nil {
			t.Fatal(err)
		}
	}
	move := func(dy int64) {
		t.Helper()
		if err := layout.ApplyEdit(d, tc, layout.Edit{Op: layout.OpMoveElement, Symbol: row.Name, Index: 0, DY: dy}); err != nil {
			t.Fatal(err)
		}
	}
	own := func() layout.Hash { return row.Hashes().Own }

	run()
	cold := c.OwnEntries()
	before := c.OwnChecks(own())
	if before == nil {
		t.Fatal("the row's results are not on its own entry after a cold run")
	}
	move(250)
	run()
	move(-250)
	run()
	if got := c.OwnChecks(own()); got != before {
		t.Fatal("an edit and its undo recomputed the row's results instead of reusing them")
	}

	move(250)
	run()
	first := own()
	for i := 0; i < 50; i++ {
		move(250) // drifts: every state is new
		run()
		if n := c.OwnEntries(); n > cold+netlist.EvictAge {
			t.Fatalf("edit %d: %d own entries, want at most %d (cold) + %d", i, n, cold, netlist.EvictAge)
		}
	}
	if c.OwnChecks(first) != nil {
		t.Fatal("the row state left behind 50 edits ago was never evicted")
	}
}
