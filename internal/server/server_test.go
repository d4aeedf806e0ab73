package server

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// cmosCIF renders a small CMOS inverter-array chip as CIF text (the
// service's upload format).
func cmosCIF(t *testing.T, rows, cols int) (string, *tech.Technology) {
	t.Helper()
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "chip", rows, cols)
	text, err := cif.Write(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	return text, tc
}

// cmosDeckText is the shipped CMOS rule deck's source, as a client would
// upload it.
func cmosDeckText(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../tech/decks/cmos.deck")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// breakEdits is the BreakAccidentalTransistor(1) geometry as an edit
// script: a poly wire straight across column 1's n-diffusion output wire
// in row 0 (workload/cmos.go documents the coordinates).
func breakEdits() []layout.Edit {
	x := int64(1) * workload.CMOSPitchX
	return []layout.Edit{{
		Op: layout.OpAddWire, Symbol: "chip", Layer: tech.CMOSPoly,
		Width: 200, Path: []int64{x + 400, -400, x + 400, 400},
	}}
}

func revertEdits() []layout.Edit {
	return []layout.Edit{{Op: layout.OpDeleteElement, Symbol: "chip", Index: -1}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	return serveTest(t, New(cfg))
}

// newFakeClockServer is newTestServer on a fake clock: nothing time-driven
// happens until the test advances it (see fakeClock in sim_test.go).
func newFakeClockServer(t *testing.T, cfg Config) (*Server, *Client, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1e9, 0)}
	srv, c := serveTest(t, newServer(cfg, clk))
	return srv, c, clk
}

func serveTest(t *testing.T, srv *Server) (*Server, *Client) {
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, NewClient(ts.URL)
}

// TestSessionLifecycleParity drives the scripted session of the CI smoke
// job through the HTTP API — clean, violating, clean again — and asserts
// fingerprint parity at every step against an offline Engine replaying
// the identical edit script on the identical CIF.
func TestSessionLifecycleParity(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: time.Hour})

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "smoke", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if !created.Report.Clean {
		t.Fatalf("initial report not clean: %+v", created.Report.Violations)
	}

	// The offline oracle: same CIF, same design name, same edit script.
	tcOff := tech.CMOS()
	dOff, err := cif.Parse(text, tcOff, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(tcOff, core.Options{})
	repOff, err := eng.Check(dOff)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := created.Report.Fingerprint, core.FingerprintDigest(repOff); got != want {
		t.Fatalf("initial fingerprint mismatch: served %s offline %s", got, want)
	}
	cleanFP := created.Report.Fingerprint

	// Break: the accidental transistor must appear, identically on both
	// sides.
	if _, err := c.SessionEdit(context.Background(), created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	rep, err := c.SessionReport(context.Background(), created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatal("report clean after accidental-transistor edit")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "DEV.ACCIDENTAL" {
			found = true
		}
	}
	if !found {
		t.Fatalf("DEV.ACCIDENTAL not reported: %+v", rep.Violations)
	}
	if _, err := layout.ApplyEdits(dOff, tcOff, breakEdits()); err != nil {
		t.Fatal(err)
	}
	repOff, err = eng.Recheck(dOff)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Fingerprint, core.FingerprintDigest(repOff); got != want {
		t.Fatalf("broken fingerprint mismatch: served %s offline %s", got, want)
	}

	// Revert: clean again, and byte-identical to the initial state.
	if _, err := c.SessionEdit(context.Background(), created.ID, revertEdits()); err != nil {
		t.Fatal(err)
	}
	rep, err = c.SessionReport(context.Background(), created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("report not clean after revert: %+v", rep.Violations)
	}
	if rep.Fingerprint != cleanFP {
		t.Fatalf("revert fingerprint %s != initial %s", rep.Fingerprint, cleanFP)
	}
	if _, err := layout.ApplyEdits(dOff, tcOff, revertEdits()); err != nil {
		t.Fatal(err)
	}
	repOff, err = eng.Recheck(dOff)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Fingerprint, core.FingerprintDigest(repOff); got != want {
		t.Fatalf("reverted fingerprint mismatch: served %s offline %s", got, want)
	}

	if err := c.SessionDelete(context.Background(), created.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionReport(context.Background(), created.ID); err == nil {
		t.Fatal("report on deleted session succeeded")
	}
}

// TestDebounceBatching locks the acceptance bound: a 10-edit burst costs
// at most 2 rechecks, and the report request observes the post-batch
// state.
func TestDebounceBatching(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	// A huge window means the timer can never fire mid-test: the report
	// request is the only flush trigger, so the burst costs exactly one
	// recheck.
	_, c := newTestServer(t, Config{Debounce: time.Hour})

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "burst", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	// Ten single-edit batches: a forward/back jitter on the chip's last
	// element (the well trunk), ending where it started.
	for i := 0; i < 10; i++ {
		dy := int64(100)
		if i%2 == 1 {
			dy = -100
		}
		if _, err := c.SessionEdit(context.Background(), created.ID, []layout.Edit{{
			Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: dy,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.SessionReport(context.Background(), created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("burst end state not clean: %+v", rep.Violations)
	}
	st, err := c.SessionStats(context.Background(), created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session.EditsApplied != 10 || st.Session.EditBatches != 10 {
		t.Fatalf("edit counters: %+v", st.Session)
	}
	// 1 initial check + at most 2 for the burst; with the timer parked it
	// is exactly 1.
	if burst := st.Session.Rechecks - 1; burst > 2 {
		t.Fatalf("10-edit burst cost %d rechecks (want <= 2): %+v", burst, st.Session)
	}
	if st.Session.ReportFlushes != 1 {
		t.Fatalf("report flushes = %d", st.Session.ReportFlushes)
	}
	if st.Dirty {
		t.Fatal("session still dirty after report")
	}
}

// TestDebounceTimerFlush proves the background path: with no report
// request, the timer runs the recheck on its own once the window passes,
// and not before.
func TestDebounceTimerFlush(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c, clk := newFakeClockServer(t, Config{Debounce: 10 * time.Millisecond})

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "timer", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(context.Background(), created.ID, []layout.Edit{{
		Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: 100,
	}}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		advance time.Duration
		flushed bool
	}{{9 * time.Millisecond, false}, {time.Millisecond, true}} {
		clk.advance(step.advance, nil)
		clk.runReady()
		st, err := c.SessionStats(context.Background(), created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if flushed := !st.Dirty && st.Session.DebounceFlushes == 1; flushed != step.flushed {
			t.Fatalf("after %v more: flushed=%v, want %v: %+v", step.advance, flushed, step.flushed, st.Session)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	text, _ := cmosCIF(t, 1, 1)
	_, c, clk := newFakeClockServer(t, Config{MaxSessions: 2, Debounce: time.Hour})

	var ids []string
	for _, name := range []string{"a", "b", "c"} {
		created, err := c.SessionCreate(context.Background(), CreateRequest{Name: name, CIF: text, Tech: "cmos"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, created.ID)
		clk.advance(time.Millisecond, nil)
	}
	if _, err := c.SessionReport(context.Background(), ids[0]); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("oldest session not evicted: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := c.SessionReport(context.Background(), id); err != nil {
			t.Fatalf("session %s evicted: %v", id, err)
		}
	}
	infos, err := c.SessionList(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listing has %d sessions", len(infos))
	}
}

func TestIdleEviction(t *testing.T) {
	text, _ := cmosCIF(t, 1, 1)
	srv, c := newTestServer(t, Config{IdleTTL: time.Minute, Debounce: time.Hour})

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "idle", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.SweepIdle(time.Now()); n != 0 {
		t.Fatalf("fresh session swept (%d)", n)
	}
	if n := srv.SweepIdle(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("idle sweep removed %d sessions", n)
	}
	if _, err := c.SessionReport(context.Background(), created.ID); err == nil {
		t.Fatal("idle session still reachable")
	}
}

// TestCreateFromDeck exercises the deck-upload path: a session created
// from rule-deck source text instead of a registered technology name must
// check identically to one created from the registry (the CMOS process is
// deck-defined, so rendering its deck back out is an exact round trip).
func TestCreateFromDeck(t *testing.T) {
	text, _ := cmosCIF(t, 1, 2)
	deckSrc := cmosDeckText(t)
	_, c := newTestServer(t, Config{Debounce: time.Hour})

	byName, err := c.SessionCreate(context.Background(), CreateRequest{Name: "reg", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	byDeck, err := c.SessionCreate(context.Background(), CreateRequest{Name: "reg", DesignName: "reg", CIF: text, Deck: deckSrc})
	if err != nil {
		t.Fatal(err)
	}
	if !byDeck.Report.Clean {
		t.Fatalf("deck-created session not clean: %+v", byDeck.Report.Violations)
	}
	if byDeck.Report.Fingerprint != byName.Report.Fingerprint {
		t.Fatalf("deck vs registry fingerprint mismatch: %s vs %s",
			byDeck.Report.Fingerprint, byName.Report.Fingerprint)
	}
}

// TestBuiltinTechShared: sessions created from one built-in technology
// name share one *tech.Technology, parsed once per process; a session
// created from an uploaded deck gets a technology of its own.
func TestBuiltinTechShared(t *testing.T) {
	text, _ := cmosCIF(t, 1, 2)
	srv, c := newTestServer(t, Config{Debounce: time.Hour})
	techOf := func(req CreateRequest) *tech.Technology {
		t.Helper()
		created, err := c.SessionCreate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.sessions[created.ID].tc
	}
	a := techOf(CreateRequest{Name: "a", CIF: text, Tech: "cmos"})
	b := techOf(CreateRequest{Name: "b", CIF: text, Tech: "cmos"})
	byDeck := techOf(CreateRequest{Name: "c", DesignName: "c", CIF: text, Deck: cmosDeckText(t)})
	if a != b {
		t.Fatalf("two cmos sessions hold two technologies (%p, %p)", a, b)
	}
	if byDeck == a {
		t.Fatal("a deck-created session shares the built-in technology")
	}
	if shared, _ := tech.ByName("cmos"); shared != a {
		t.Fatal("the sessions' technology is not the process-wide one")
	}

	// Concurrent resolutions (the first ones, unless an earlier test asked
	// for bipolar) all get the one value and read its rule table.
	const n = 8
	got := make([]*tech.Technology, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc, _ := resolveTech(&CreateRequest{Tech: "bipolar"})
			tc.MaxSpacing()
			got[i] = tc
		}()
	}
	wg.Wait()
	for _, tc := range got[1:] {
		if tc != got[0] {
			t.Fatal("concurrent first resolutions returned different technologies")
		}
	}
}

func TestCreateErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  CreateRequest
	}{
		{"empty cif", CreateRequest{Tech: "cmos"}},
		{"bad tech", CreateRequest{CIF: "E", Tech: "unobtanium"}},
		{"bad cif", CreateRequest{CIF: "DS 1; L ZZ; DF; E", Tech: "nmos"}},
		{"bad metric", CreateRequest{CIF: "E", Tech: "nmos", Metric: "manhattan"}},
		{"bad deck", CreateRequest{CIF: "E", Deck: "tech garbage {"}},
	}
	for _, cse := range cases {
		if _, err := c.SessionCreate(context.Background(), cse.req); err == nil {
			t.Errorf("%s: create succeeded", cse.name)
		}
	}
}

func TestEditErrorKeepsSessionUsable(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: time.Hour})
	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "err", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(context.Background(), created.ID, []layout.Edit{{Op: "explode", Symbol: "chip"}}); err == nil {
		t.Fatal("bad edit accepted")
	}
	rep, err := c.SessionReport(context.Background(), created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("session corrupted by rejected edit: %+v", rep.Violations)
	}
	if rep.Fingerprint != created.Report.Fingerprint {
		t.Fatal("rejected edit changed the design state")
	}
}

// TestWidthClassRoundTrip drives a width violation through the daemon: an
// nMOS chip carrying the ground-truth too-narrow wire is uploaded, the
// wire report must carry the per-class summary with the width class, and
// the served fingerprint must equal an offline check of the same CIF.
func TestWidthClassRoundTrip(t *testing.T) {
	tcUp := tech.NMOS()
	chip := workload.NewChip(tcUp, "narrow", 2, 2)
	chip.BreakRuleWidth(0)
	text, err := cif.Write(chip.Design, tcUp)
	if err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, Config{Debounce: time.Hour})
	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "narrow", CIF: text, Tech: "nmos"})
	if err != nil {
		t.Fatal(err)
	}
	rep := created.Report
	if rep.Clean {
		t.Fatal("narrow-wire chip reported clean")
	}
	// W.ND (per-element) and WIDTH.ND (merged-region kernel) both land in
	// the width class; the floating wire adds one net-class complaint.
	if rep.Classes["width"] != 2 {
		t.Fatalf("classes = %v, want width=2", rep.Classes)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "WIDTH.ND" {
			found = true
		}
	}
	if !found {
		t.Fatalf("WIDTH.ND missing from wire report: %+v", rep.Violations)
	}

	tcOff := tech.NMOS()
	dOff, err := cif.Parse(text, tcOff, "narrow")
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := core.Check(dOff, tcOff, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Fingerprint, core.FingerprintDigest(repOff); got != want {
		t.Fatalf("served fingerprint %s != offline %s", got, want)
	}
}

// TestLoopsOnRealClock runs the idle janitor and the snapshot sweep on the
// real clock until both have fired, then closes the server under them:
// the race detector's view of the re-arming timers, which the simulation
// only ever runs on one goroutine.
func TestLoopsOnRealClock(t *testing.T) {
	text, _ := cmosCIF(t, 1, 1)
	srv, c := newTestServer(t, Config{IdleTTL: 4 * time.Millisecond, StateDir: t.TempDir(), SnapshotEvery: time.Millisecond})
	if _, err := c.SessionCreate(context.Background(), CreateRequest{Name: "idle", CIF: text, Tech: "cmos"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		gst, err := c.ServerStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gst.EvictionsIdle > 0 && gst.SnapshotsSaved > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loops never fired: %+v", gst)
		}
	}
	srv.Close()
}
