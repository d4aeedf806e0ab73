package server

import (
	"context"
	"testing"

	"repro/internal/layout"
	"repro/internal/tech"
)

// TestSessionDigestsOncePerRun pins the cost model of the report path: a
// session digests its report when an engine run completes and at no other
// time. Creating a session, N edit-then-delta polls, an idle full report,
// a snapshot sweep and a reset delta are 1 + N engine runs, so exactly
// 1 + N digests — with the delta ring on or off. (The restore path's
// single digest is the cold check's; TestDeltaSurvivesRestore and the
// snapshot property test cover its outcome.)
func TestSessionDigestsOncePerRun(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	ctx := context.Background()
	const edits = 5
	for _, history := range []int{0, -1} {
		_, c := newTestServer(t, Config{Debounce: -1, ReportHistory: history, StateDir: t.TempDir()})
		before := digestCount.Load()

		created, err := c.SessionCreate(ctx, CreateRequest{Name: "digests", CIF: text, Tech: "cmos"})
		if err != nil {
			t.Fatal(err)
		}
		cached := created.Report
		for i := 0; i < edits; i++ {
			x := -50000 - int64(i)*5000
			if _, err := c.SessionEdit(ctx, created.ID, []layout.Edit{{
				Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal, Box: []int64{x, 0, x + 1000, 1000},
			}}); err != nil {
				t.Fatal(err)
			}
			rep, delta, err := c.SessionReportApply(ctx, created.ID, cached)
			if err != nil {
				t.Fatal(err)
			}
			if wantReset := history < 0; delta.Reset != wantReset {
				t.Fatalf("history %d edit %d: reset = %v, want %v", history, i, delta.Reset, wantReset)
			}
			if rep.Fingerprint == cached.Fingerprint {
				t.Fatalf("history %d edit %d: the edit did not change the state", history, i)
			}
			cached = rep
		}
		full, err := c.SessionReport(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if full.Fingerprint != cached.Fingerprint {
			t.Fatalf("history %d: idle report fingerprint %s, last delta %s", history, full.Fingerprint, cached.Fingerprint)
		}
		if sweep, err := c.SnapshotAll(ctx); err != nil || sweep.Saved != 1 {
			t.Fatalf("history %d: snapshot sweep = %+v, %v; want 1 saved", history, sweep, err)
		}
		if d, err := c.SessionReportSince(ctx, created.ID, "not-a-fingerprint"); err != nil || !d.Reset {
			t.Fatalf("history %d: reset delta = %+v, %v", history, d, err)
		}

		if got, want := digestCount.Load()-before, int64(1+edits); got != want {
			t.Errorf("history %d: %d digests for %d engine runs", history, got, want)
		}
	}
}
