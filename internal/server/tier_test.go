package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// libraryTexts renders CMOS arrays of the given shapes — the same cells at
// different row and column counts — each with an inert metal probe last on
// its top, which a window edit moves.
func libraryTexts(t *testing.T, shapes ...[2]int) []string {
	t.Helper()
	tc := tech.CMOS()
	metal, _ := tc.LayerByName(tech.CMOSMetal)
	out := make([]string, len(shapes))
	for i, s := range shapes {
		chip := workload.NewCMOSChip(tc, "chip", s[0], s[1])
		chip.Design.Top.AddBox(metal, geom.R(-30000, 0, -29000, 1000), "")
		text, err := cif.Write(chip.Design, tc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = text
	}
	return out
}

// libraryDigest is the fingerprint a library engine of its own gives a
// session's text, named as a create request names it, after edits.
func libraryDigest(t *testing.T, text, name string, edits ...layout.Edit) string {
	t.Helper()
	tc := tech.CMOS()
	d, err := cif.Parse(text, tc, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edits {
		if err := layout.ApplyEdit(d, tc, e); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := core.NewEngine(tc, core.Options{}).Check(d)
	if err != nil {
		t.Fatal(err)
	}
	return core.FingerprintDigest(rep)
}

// liveTiers returns the server's tiers.
func liveTiers(srv *Server) []*netlist.Tier {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	var out []*netlist.Tier
	for _, t := range srv.tiers {
		out = append(out, t)
	}
	return out
}

// requireEmpty fails unless the server keeps no tier and every tier it
// kept before holds nothing.
func requireEmpty(t *testing.T, label string, srv *Server, tiers []*netlist.Tier) {
	t.Helper()
	if n := len(liveTiers(srv)); n != 0 {
		t.Fatalf("%s: the server keeps %d tiers", label, n)
	}
	for _, tr := range tiers {
		if st := tr.Stats(); st.Entries != 0 || st.Views != 0 {
			t.Fatalf("%s: a tier still holds %+v", label, st)
		}
	}
}

// TestSharedTierHammer: 32 clients create sessions of one text and of two
// other texts over the same cells at once. Every served fingerprint equals
// a library engine's, the sessions share one tier, which /v1/stats
// reports, and once every session is deleted the tier is empty.
func TestSharedTierHammer(t *testing.T) {
	texts := libraryTexts(t, [2]int{2, 3}, [2]int{3, 2}, [2]int{2, 4})
	want := make([]string, len(texts))
	for i, text := range texts {
		want[i] = libraryDigest(t, text, "t")
	}
	srv, c := newTestServer(t, Config{Debounce: time.Hour, QueueDepth: 64})
	const clients = 32
	ids := make([]string, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			text := g % 4 % len(texts) // half the clients create text 0
			created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "t", CIF: texts[text], Tech: "cmos"})
			if err != nil {
				errs <- err
				return
			}
			ids[g] = created.ID
			if created.Report.Fingerprint != want[text] {
				errs <- fmt.Errorf("client %d: text %d served %s, library engine %s", g, text, created.Report.Fingerprint, want[text])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Tech != tech.CMOS().Name || st.Tiers[0].Engines != clients || st.Tiers[0].Entries == 0 ||
		st.Tiers[0].Hits == 0 || st.Tiers[0].Builds == 0 {
		t.Fatalf("/v1/stats tiers: %+v; want one cmos tier under %d engines", st.Tiers, clients)
	}
	tiers := liveTiers(srv)
	for _, id := range ids {
		if err := c.SessionDelete(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	requireEmpty(t, "every session deleted", srv, tiers)
}

// TestSharedTierWindowEdit: of two sessions of one text, one takes a
// window edit and its undo. After each step both sessions serve what a
// library engine gives their designs, and the other session's fingerprint
// never moves — whichever of the two built the shared root.
func TestSharedTierWindowEdit(t *testing.T) {
	text := libraryTexts(t, [2]int{2, 3})[0]
	move := layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: 300}
	back := move
	back.DY = -300
	for edited := 0; edited < 2; edited++ {
		_, c := newTestServer(t, Config{Debounce: time.Hour})
		var ids [2]string
		for i := range ids {
			created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "w", CIF: text, Tech: "cmos"})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = created.ID
		}
		other := ids[1-edited]
		base := libraryDigest(t, text, "w")
		for _, step := range []struct {
			label string
			edit  layout.Edit
			want  string
		}{
			{"window edit", move, libraryDigest(t, text, "w", move)},
			{"undo", back, base},
		} {
			if _, err := c.SessionEdit(context.Background(), ids[edited], []layout.Edit{step.edit}); err != nil {
				t.Fatal(err)
			}
			rep, err := c.SessionReport(context.Background(), ids[edited])
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fingerprint != step.want {
				t.Fatalf("session %d, %s: served %s, library engine %s", edited, step.label, rep.Fingerprint, step.want)
			}
			if rep, err = c.SessionReport(context.Background(), other); err != nil {
				t.Fatal(err)
			}
			if rep.Fingerprint != base {
				t.Fatalf("session %d, %s: the other session moved to %s from %s", edited, step.label, rep.Fingerprint, base)
			}
		}
	}
}

// TestNoConstructSharesTier: the construction setting reaches nothing a
// tier holds, so a noconstruct session of a text a resident session holds
// shares its tier and builds nothing: no artifact, own entry or
// interaction cache. /v1/stats lists one tier, and each session serves
// what a library engine gives the text under its own options.
func TestNoConstructSharesTier(t *testing.T) {
	text := libraryTexts(t, [2]int{2, 3})[0]
	srv, c := newTestServer(t, Config{Debounce: time.Hour})
	var fps [2]string
	var last *Session
	for i, skip := range []bool{false, true} {
		created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "n", CIF: text, Tech: "cmos", NoConstruct: skip})
		if err != nil {
			t.Fatal(err)
		}
		d, err := cif.Parse(text, tech.CMOS(), "n")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.NewEngine(tech.CMOS(), core.Options{SkipConstruction: skip}).Check(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.FingerprintDigest(rep); created.Report.Fingerprint != want {
			t.Fatalf("noconstruct=%v: served %s, library engine %s", skip, created.Report.Fingerprint, want)
		}
		fps[i] = created.Report.Fingerprint
		srv.mu.Lock()
		last = srv.sessions[created.ID]
		srv.mu.Unlock()
	}
	if fps[0] == fps[1] {
		t.Fatal("the text's report does not depend on the construction rules")
	}
	last.mu.Lock()
	st := last.eng.Stats()
	last.mu.Unlock()
	if st.Built.Artifacts != 0 || st.Built.Owns != 0 || st.InterBuilt != 0 {
		t.Fatalf("the noconstruct session built %+v and %d interaction caches, want nothing", st.Built, st.InterBuilt)
	}
	ss, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Tiers) != 1 || ss.Tiers[0].Engines != 2 {
		t.Fatalf("/v1/stats tiers: %+v; want one tier under both sessions", ss.Tiers)
	}
}

// TestTiersEmptyAfterEviction: LRU eviction leaves the tier holding what
// the surviving session reaches, and idle eviction, like deletion, leaves
// no tier and nothing in one.
func TestTiersEmptyAfterEviction(t *testing.T) {
	texts := libraryTexts(t, [2]int{2, 3}, [2]int{3, 2})
	create := func(c *Client, text string) string {
		t.Helper()
		created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "e", CIF: text, Tech: "cmos"})
		if err != nil {
			t.Fatal(err)
		}
		return created.ID
	}

	// What one session of texts[1] alone holds.
	alone := netlist.NewTier()
	d, err := cif.Parse(texts[1], tech.CMOS(), "e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewEngineOn(alone, tech.CMOS(), core.Options{}).Check(d); err != nil {
		t.Fatal(err)
	}

	srv, c, clk := newFakeClockServer(t, Config{MaxSessions: 1, Debounce: time.Hour})
	create(c, texts[0])
	tiers := liveTiers(srv)
	clk.advance(time.Millisecond, nil)
	survivor := create(c, texts[1]) // evicts the first session
	if got, want := tiers[0].Stats(), alone.Stats(); got.Views != 1 || got.Entries != want.Entries {
		t.Fatalf("after LRU eviction the tier holds %+v; one session of the survivor's text holds %d entries", got, want.Entries)
	}
	if err := c.SessionDelete(context.Background(), survivor); err != nil {
		t.Fatal(err)
	}
	requireEmpty(t, "LRU, then delete", srv, tiers)

	srv, c = newTestServer(t, Config{IdleTTL: time.Minute, Debounce: time.Hour})
	create(c, texts[0])
	create(c, texts[1])
	tiers = liveTiers(srv)
	if n := srv.SweepIdle(time.Now().Add(2 * time.Minute)); n != 2 {
		t.Fatalf("idle sweep removed %d sessions", n)
	}
	requireEmpty(t, "idle eviction", srv, tiers)
}

// stopAfter is a context that reports cancellation from its n+1st Err on,
// or panics there when panics is set: the engine asks at every stage
// boundary, on the goroutine that runs the check, so n picks the stage a
// create's cold check is cancelled or panics before.
type stopAfter struct {
	context.Context
	n      atomic.Int32
	panics bool
}

func (c *stopAfter) Err() error {
	if c.n.Add(-1) < 0 {
		if c.panics {
			panic("stopAfter: injected panic")
		}
		return context.Canceled
	}
	return nil
}

// openRecovering is srv.open with a panic turned into an error.
func openRecovering(srv *Server, ctx context.Context, req CreateRequest) (sess *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			sess, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	sess, serr := srv.open(ctx, "", req)
	if serr != nil {
		return nil, serr
	}
	return sess, nil
}

// TestCancelledCreatePublishesNothing: a create of a new text over a
// resident session's cells, cancelled before any stage of its cold check
// or panicking there, fails and leaves the shared tier holding what the
// resident session holds, no more.
func TestCancelledCreatePublishesNothing(t *testing.T) {
	texts := libraryTexts(t, [2]int{2, 3}, [2]int{3, 2})
	srv, c := newTestServer(t, Config{Debounce: time.Hour})
	if _, err := c.SessionCreate(context.Background(), CreateRequest{Name: "r", CIF: texts[0], Tech: "cmos"}); err != nil {
		t.Fatal(err)
	}
	tier := liveTiers(srv)[0]
	base := tier.Stats().Entries
	for n := 0; ; n++ {
		var sess *Session
		for _, panics := range []bool{false, true} {
			ctx := &stopAfter{Context: context.Background(), panics: panics}
			ctx.n.Store(int32(n))
			var err error
			sess, err = openRecovering(srv, ctx, CreateRequest{Name: "x", CIF: texts[1], Tech: "cmos"})
			if err != nil {
				if st := tier.Stats(); st.Entries != base || st.Views != 1 {
					t.Fatalf("a create that failed after %d stages (%v) left %+v in the tier, want %d entries under one engine", n, err, st, base)
				}
				continue
			}
			sess.close()
		}
		if sess != nil {
			if n < 5 {
				t.Fatalf("a create cancelled after %d stages succeeded", n)
			}
			break
		}
	}
	if st := tier.Stats(); st.Entries != base || st.Views != 1 {
		t.Fatalf("a closed session left %+v in the tier, want %d entries under one engine", st, base)
	}
}

// TestPoisonedSessionReleasesTier: a session poisoned by a panic keeps its
// references until it is deleted, leaves the values its sibling of the
// same text shares as they were, and gives them back on delete.
func TestPoisonedSessionReleasesTier(t *testing.T) {
	text := libraryTexts(t, [2]int{2, 3})[0]
	srv, c := newTestServer(t, Config{Debounce: time.Hour})
	var ids [2]string
	for i := range ids {
		created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "p", CIF: text, Tech: "cmos"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = created.ID
	}
	tiers := liveTiers(srv)
	arm(srv, ids[0], injectState{panicN: 1})
	if _, err := c.SessionEdit(context.Background(), ids[0], breakEdits()); err == nil {
		t.Fatal("the injected panic did not fail the edit")
	}
	if _, err := c.SessionEdit(context.Background(), ids[1], breakEdits()); err != nil {
		t.Fatal(err)
	}
	rep, err := c.SessionReport(context.Background(), ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := libraryDigest(t, text, "p", breakEdits()...); rep.Fingerprint != want {
		t.Fatalf("the poisoned session's sibling serves %s, library engine %s", rep.Fingerprint, want)
	}
	if err := c.SessionDelete(context.Background(), ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := tiers[0].Stats(); st.Views != 1 {
		t.Fatalf("after deleting the poisoned session the tier has %d engines, want 1", st.Views)
	}
	if err := c.SessionDelete(context.Background(), ids[1]); err != nil {
		t.Fatal(err)
	}
	requireEmpty(t, "both deleted", srv, tiers)
}

// TestFailedRestoreReleasesTier: a snapshot whose saved fingerprint the
// recheck does not reproduce is refused, and the session opened to
// recheck it leaves no tier behind.
func TestFailedRestoreReleasesTier(t *testing.T) {
	text := libraryTexts(t, [2]int{2, 3})[0]
	srv, _ := newTestServer(t, Config{Debounce: time.Hour})
	snap := &SessionSnapshot{ID: "s4", CreateRequest: CreateRequest{Name: "f", CIF: text, Tech: "cmos"}, Envelope: Envelope{Fingerprint: "not-the-digest"}}
	if _, err := srv.restore(context.Background(), snap); err == nil {
		t.Fatal("a snapshot with a wrong fingerprint was restored")
	}
	requireEmpty(t, "a refused restore", srv, nil)
}
