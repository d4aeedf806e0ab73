package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/tech"
)

// fullJSON marshals a wire report the way the test compares them:
// byte-identical marshaling is the delta parity contract.
func fullJSON(t *testing.T, rep *Report) string {
	t.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReportDeltaProperty is the randomized edit-script property test:
// a client that only ever fetches deltas (SessionReportApply) must hold
// a report byte-identical — fingerprint included — to what a cold full
// fetch returns, after every batch of a random edit script.
func TestReportDeltaProperty(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: -1})
	ctx := context.Background()

	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(42 + trial)))
		created, err := c.SessionCreate(ctx, CreateRequest{Name: "delta-prop", CIF: text, Tech: "cmos"})
		if err != nil {
			t.Fatal(err)
		}
		// The cached report a delta-only client maintains; seeded by the
		// cold report from create.
		cached := created.Report

		script := randomEdits(rng, 6+rng.Intn(8))
		for i := range script {
			if _, err := c.SessionEdit(ctx, created.ID, script[i:i+1]); err != nil {
				t.Fatalf("trial %d edit %d: %v", trial, i, err)
			}
			rep, delta, err := c.SessionReportApply(ctx, created.ID, cached)
			if err != nil {
				t.Fatalf("trial %d apply %d: %v", trial, i, err)
			}
			full, err := c.SessionReport(ctx, created.ID)
			if err != nil {
				t.Fatalf("trial %d full %d: %v", trial, i, err)
			}
			if rep.Fingerprint != full.Fingerprint {
				t.Fatalf("trial %d step %d: reconstructed fingerprint %s != full %s",
					trial, i, rep.Fingerprint, full.Fingerprint)
			}
			if got, want := fullJSON(t, rep), fullJSON(t, full); got != want {
				t.Fatalf("trial %d step %d: reconstruction not byte-identical\ngot:  %s\nwant: %s",
					trial, i, got, want)
			}
			if delta.Reset {
				t.Fatalf("trial %d step %d: delta unexpectedly reset (base %q)", trial, i, cached.Fingerprint)
			}
			if delta.Base != cached.Fingerprint {
				t.Fatalf("trial %d step %d: delta base %s, want %s", trial, i, delta.Base, cached.Fingerprint)
			}
			cached = rep
		}
		if err := c.SessionDelete(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReportDeltaAddedRemoved pins the shape of a delta across a
// break/revert cycle: breaking the chip shows up in added, reverting it
// moves the same violations to removed, and an unchanged state yields an
// empty delta.
func TestReportDeltaAddedRemoved(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: -1})
	ctx := context.Background()

	created, err := c.SessionCreate(ctx, CreateRequest{Name: "shape", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	cleanFP := created.Report.Fingerprint

	// Unchanged state: empty delta against the current fingerprint.
	d0, err := c.SessionReportSince(ctx, created.ID, cleanFP)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Reset || len(d0.Added) != 0 || len(d0.Removed) != 0 {
		t.Fatalf("no-op delta: reset=%v added=%d removed=%d", d0.Reset, len(d0.Added), len(d0.Removed))
	}
	if d0.Schema != SchemaReportDelta {
		t.Fatalf("delta schema %q, want %q", d0.Schema, SchemaReportDelta)
	}

	if _, err := c.SessionEdit(ctx, created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	d1, err := c.SessionReportSince(ctx, created.ID, cleanFP)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Reset || len(d1.Added) == 0 || len(d1.Removed) != 0 {
		t.Fatalf("break delta: reset=%v added=%d removed=%d", d1.Reset, len(d1.Added), len(d1.Removed))
	}

	if _, err := c.SessionEdit(ctx, created.ID, revertEdits()); err != nil {
		t.Fatal(err)
	}
	d2, err := c.SessionReportSince(ctx, created.ID, d1.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Reset || len(d2.Added) != 0 || len(d2.Removed) != len(d1.Added) {
		t.Fatalf("revert delta: reset=%v added=%d removed=%d (want removed=%d)",
			d2.Reset, len(d2.Added), len(d2.Removed), len(d1.Added))
	}
	if d2.Fingerprint != cleanFP {
		t.Fatalf("revert did not return to the clean fingerprint")
	}
}

// TestReportDeltaReset covers the fallback paths: an unknown fingerprint,
// the empty cold-client fingerprint, and a fingerprint evicted from a
// deliberately tiny history ring all answer with a reset delta that
// reconstructs the full report from nothing.
func TestReportDeltaReset(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: -1, ReportHistory: 2})
	ctx := context.Background()

	created, err := c.SessionCreate(ctx, CreateRequest{Name: "reset", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}

	for _, since := range []string{"", "not-a-fingerprint"} {
		d, err := c.SessionReportSince(ctx, created.ID, since)
		if err != nil {
			t.Fatalf("since=%q: %v", since, err)
		}
		if !d.Reset || d.Base != "" {
			t.Fatalf("since=%q: reset=%v base=%q, want reset with empty base", since, d.Reset, d.Base)
		}
		rep, err := ApplyDelta(nil, d)
		if err != nil {
			t.Fatalf("since=%q: apply reset: %v", since, err)
		}
		full, err := c.SessionReport(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fullJSON(t, rep), fullJSON(t, full); got != want {
			t.Fatalf("since=%q: reset reconstruction not byte-identical", since)
		}
	}

	// Evict the cold fingerprint out of the 2-entry ring: two further
	// distinct states (break, then revert+break at another column push two
	// new fingerprints) and the original must be gone.
	coldFP := created.Report.Fingerprint
	if _, err := c.SessionEdit(ctx, created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionReport(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(ctx, created.ID, []layout.Edit{{
		Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal,
		Box: []int64{-50000, 0, -49000, 1000},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionReport(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	d, err := c.SessionReportSince(ctx, created.ID, coldFP)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reset {
		t.Fatalf("evicted fingerprint %s still produced a delta", coldFP)
	}

	// A transparent client converges through the reset without noticing.
	rep, delta, err := c.SessionReportApply(ctx, created.ID, created.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Reset {
		t.Fatal("expected reset for the evicted base")
	}
	full, err := c.SessionReport(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fullJSON(t, rep), fullJSON(t, full); got != want {
		t.Fatal("post-eviction reconstruction not byte-identical")
	}
}

// TestApplyDeltaErrors pins the misuse contract: a non-reset delta
// demands a base and refuses a mismatched one.
func TestApplyDeltaErrors(t *testing.T) {
	d := &ReportDelta{Base: "abc"}
	if _, err := ApplyDelta(nil, d); err == nil {
		t.Fatal("nil base accepted for a non-reset delta")
	}
	base := &Report{}
	base.Fingerprint = "def"
	if _, err := ApplyDelta(base, d); err == nil {
		t.Fatal("mismatched base accepted")
	}
	if _, err := ApplyDelta(base, &ReportDelta{Base: "def", Removed: []Violation{{Rule: "X"}}}); err == nil {
		t.Fatal("removed violation absent from base accepted")
	}
}

// TestDeltaSurvivesRestore is the snapshot-persistence case: a client's
// pre-crash fingerprint must still resolve to a real delta (not a reset)
// after the daemon is killed and a fresh one restores from disk.
func TestDeltaSurvivesRestore(t *testing.T) {
	dir := t.TempDir()
	text, _ := cmosCIF(t, 2, 2)
	cfg := Config{Debounce: -1, StateDir: dir}

	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1)
	c1 := NewClient(ts1.URL)
	ctx := context.Background()

	created, err := c1.SessionCreate(ctx, CreateRequest{Name: "crash", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	preFP := created.Report.Fingerprint
	if _, err := c1.SessionEdit(ctx, created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	broken, err := c1.SessionReport(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SnapshotAll(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // kill -9: no graceful shutdown

	srv2 := New(cfg)
	ts2 := httptest.NewServer(srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	c2 := NewClient(ts2.URL)
	if restored, errs := srv2.RestoreFromDisk(ctx); len(errs) > 0 || restored != 1 {
		t.Fatalf("restore: %d sessions, errs %v", restored, errs)
	}

	d, err := c2.SessionReportSince(ctx, created.ID, preFP)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset {
		t.Fatalf("pre-crash fingerprint %s degraded to reset after restore", preFP)
	}
	if d.Fingerprint != broken.Fingerprint {
		t.Fatalf("post-restore delta fingerprint %s != pre-crash %s", d.Fingerprint, broken.Fingerprint)
	}
	rep, err := ApplyDelta(created.Report, d)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identity is against what the restored daemon serves for this
	// state (run durations are per-run, so the pre-crash serving can only
	// be compared by its duration-free fingerprint — asserted above).
	full, err := c2.SessionReport(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fullJSON(t, rep), fullJSON(t, full); got != want {
		t.Fatal("post-restore reconstruction not byte-identical to the restored daemon's full report")
	}
}

// TestUnprefixedPathsGone asserts the pre-/v1 paths, which answered 308
// redirects for one deprecation release, are plain 404s now, and that
// their /v1 twins still answer.
func TestUnprefixedPathsGone(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{Debounce: -1, StateDir: t.TempDir()})
	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "legacy", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/sessions"},
		{http.MethodGet, "/sessions/" + created.ID + "/report"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/stats"},
		{http.MethodPost, "/snapshot"},
	} {
		for prefix, want := range map[string]int{"": http.StatusNotFound, "/v1": http.StatusOK} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(tc.method, prefix+tc.path, nil))
			if rec.Code != want {
				t.Errorf("%s %s answered %d, want %d", tc.method, prefix+tc.path, rec.Code, want)
			}
		}
	}
}

// TestDeltaStats asserts the delta path is observable: per-session and
// daemon-wide counters move, and the wire schema fields are set.
func TestDeltaStats(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: -1})
	ctx := context.Background()

	created, err := c.SessionCreate(ctx, CreateRequest{Name: "obs", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.SessionReport(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if full.Schema != SchemaReport {
		t.Fatalf("report schema %q, want %q", full.Schema, SchemaReport)
	}
	if _, err := c.SessionReportSince(ctx, created.ID, full.Fingerprint); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionReportSince(ctx, created.ID, "bogus"); err != nil {
		t.Fatal(err)
	}

	st, err := c.SessionStats(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session.DeltaReports != 2 || st.Session.DeltaResets != 1 {
		t.Fatalf("session delta counters: reports=%d resets=%d, want 2/1",
			st.Session.DeltaReports, st.Session.DeltaResets)
	}
	gst, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gst.DeltasServed != 2 || gst.DeltaResets != 1 {
		t.Fatalf("server delta counters: served=%d resets=%d, want 2/1",
			gst.DeltasServed, gst.DeltaResets)
	}
	_ = time.Now
}
