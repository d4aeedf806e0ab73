package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// randomEdits generates a valid random edit script against the cmosCIF
// chip: boxes added in a dedicated probe area west of the chip, moved
// around, and occasionally deleted. Every op is legal, so the script
// exercises real state evolution rather than error paths.
func randomEdits(rng *rand.Rand, n int) []layout.Edit {
	var edits []layout.Edit
	boxes := 0
	for i := 0; i < n; i++ {
		switch k := rng.Intn(4); {
		case k <= 1 || boxes == 0: // add a probe box on its own column
			x := int64(-40000 - boxes*3000)
			y := int64(rng.Intn(8)) * 1500
			edits = append(edits, layout.Edit{
				Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal,
				Box: []int64{x, y, x + 1000, y + 1000},
			})
			boxes++
		case k == 2: // nudge the most recent element
			edits = append(edits, layout.Edit{
				Op: layout.OpMoveElement, Symbol: "chip", Index: -1,
				DY: int64(rng.Intn(5)-2) * 250,
			})
		default: // drop it again
			edits = append(edits, layout.Edit{
				Op: layout.OpDeleteElement, Symbol: "chip", Index: -1,
			})
			boxes--
		}
	}
	return edits
}

// TestSnapshotRoundTripProperty is the property test of the snapshot
// format: for random edit scripts, snapshot → restore must reproduce the
// exact report fingerprint the live session had — which restore itself
// asserts — and the restored session must keep working (a further
// edit rechecks identically to the live session's).
func TestSnapshotRoundTripProperty(t *testing.T) {
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "chip", 2, 2)
	text, err := cif.Write(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{Debounce: -1})
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		sess, serr := srv.open(context.Background(), fmt.Sprintf("s%d", trial+1),
			CreateRequest{Name: "prop", DesignName: "chip", CIF: text, Tech: "cmos"})
		if serr != nil {
			t.Fatal(serr)
		}
		script := randomEdits(rng, 3+rng.Intn(8))
		if _, _, serr := sess.applyEdits(script); serr != nil {
			t.Fatalf("trial %d: apply: %v", trial, serr)
		}
		snap, err := sess.Snapshot(time.Now())
		if err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}
		if snap == nil {
			t.Fatalf("trial %d: snapshot skipped a changed session", trial)
		}
		liveFP := core.FingerprintDigest(sess.rep)
		if snap.Fingerprint != liveFP {
			t.Fatalf("trial %d: snapshot fingerprint %s != live %s", trial, snap.Fingerprint, liveFP)
		}

		restored, err := srv.restore(context.Background(), snap)
		if err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if !restored.restored {
			t.Fatalf("trial %d: restored flag not set", trial)
		}

		// The restored session must evolve identically: one more edit on
		// both sides, same fingerprint.
		more := []layout.Edit{{
			Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal,
			Box: []int64{-90000, 0, -89000, 1000},
		}}
		for _, s := range []*Session{sess, restored} {
			if _, _, serr := s.applyEdits(more); serr != nil {
				t.Fatalf("trial %d: post-restore edit: %v", trial, serr)
			}
			if _, serr := s.report(context.Background()); serr != nil {
				t.Fatalf("trial %d: post-restore report: %v", trial, serr)
			}
		}
		if a, b := core.FingerprintDigest(sess.rep), core.FingerprintDigest(restored.rep); a != b {
			t.Fatalf("trial %d: post-restore divergence: live %s restored %s", trial, a, b)
		}
	}
}

// TestSnapshotFileAtomicity exercises the on-disk layer: write, read
// back, version gate, and the skip-unchanged fast path.
func TestSnapshotFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "chip", 2, 2)
	text, err := cif.Write(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{Debounce: -1})
	sess, serr := srv.open(context.Background(), "s1", CreateRequest{Name: "disk", DesignName: "chip", CIF: text, Tech: "cmos"})
	if serr != nil {
		t.Fatal(serr)
	}
	snap, err := sess.Snapshot(time.Now())
	if err != nil || snap == nil {
		t.Fatalf("snapshot: %v %v", snap, err)
	}
	path, err := WriteSnapshotFile(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != snap.Fingerprint || got.CIF != snap.CIF || got.ID != "s1" {
		t.Fatal("snapshot did not round-trip through disk")
	}

	// Unknown versions are refused, not misread.
	bad := *snap
	bad.Version = SnapshotVersion + 1
	badPath, err := WriteSnapshotFile(dir, &bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(badPath); err == nil {
		t.Fatal("future-version snapshot was accepted")
	}

	// Unchanged state: the next Snapshot call is a no-op.
	sess.noteSnapshotted(snap.Generation)
	again, err := sess.Snapshot(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if again != nil {
		t.Fatal("unchanged session was re-snapshotted")
	}
	// No stray temp files behind the atomic write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != snapshotExt {
			t.Fatalf("leftover non-snapshot file %s", ent.Name())
		}
	}
}

// TestBootRestore is the crash drill in miniature: sessions served, state
// snapshotted, process "killed" (server discarded without Close), a new
// server boots on the same state directory and must serve the same
// sessions with identical fingerprints.
func TestBootRestore(t *testing.T) {
	dir := t.TempDir()
	text, _ := cmosCIF(t, 2, 2)
	cfg := Config{Debounce: time.Hour, StateDir: dir}

	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1)
	c1 := NewClient(ts1.URL)

	a, err := c1.SessionCreate(context.Background(), CreateRequest{Name: "alpha", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c1.SessionCreate(context.Background(), CreateRequest{Name: "beta", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SessionEdit(context.Background(), a.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	repA, err := c1.SessionReport(context.Background(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SnapshotAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// kill -9: no Close, no shutdown snapshot — what's on disk is all
	// that survives.
	ts1.Close()

	srv2 := New(cfg)
	ts2 := httptest.NewServer(srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	c2 := NewClient(ts2.URL)
	restored, errs := srv2.RestoreFromDisk(context.Background())
	if len(errs) > 0 {
		t.Fatalf("restore errors: %v", errs)
	}
	if restored != 2 {
		t.Fatalf("restored %d sessions, want 2", restored)
	}

	gotA, err := c2.SessionReport(context.Background(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotA.Fingerprint != repA.Fingerprint {
		t.Fatalf("restored fingerprint %s != pre-kill %s", gotA.Fingerprint, repA.Fingerprint)
	}
	st, err := c2.SessionStats(context.Background(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored {
		t.Fatal("restored session not flagged as restored")
	}
	if _, err := c2.SessionReport(context.Background(), b.ID); err != nil {
		t.Fatal(err)
	}

	// New sessions must not collide with restored ids.
	cNew, err := c2.SessionCreate(context.Background(), CreateRequest{Name: "gamma", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if cNew.ID == a.ID || cNew.ID == b.ID {
		t.Fatalf("id collision after restore: %s", cNew.ID)
	}
	gst, err := c2.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gst.SnapshotsRestored != 2 {
		t.Fatalf("SnapshotsRestored = %d, want 2", gst.SnapshotsRestored)
	}
}

// TestEvictionSnapshotsThenCloses asserts the LRU eviction persists the
// victim before closing it: the evicted session's snapshot lands on disk
// and a later boot restores it.
func TestEvictionSnapshotsThenCloses(t *testing.T) {
	dir := t.TempDir()
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{Debounce: time.Hour, MaxSessions: 1, StateDir: dir})

	a, err := c.SessionCreate(context.Background(), CreateRequest{Name: "old", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(context.Background(), a.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	repA, err := c.SessionReport(context.Background(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionCreate(context.Background(), CreateRequest{Name: "new", CIF: text, Tech: "cmos"}); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, a.ID+snapshotExt)); err != nil {
		t.Fatalf("evicted session left no snapshot: %v", err)
	}
	gst, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gst.EvictionsLRU != 1 {
		t.Fatalf("EvictionsLRU = %d, want 1", gst.EvictionsLRU)
	}

	snap, err := ReadSnapshotFile(filepath.Join(dir, a.ID+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint != repA.Fingerprint {
		t.Fatalf("evicted snapshot fingerprint %s != last served %s", snap.Fingerprint, repA.Fingerprint)
	}

	// DELETE removes the snapshot too — the user asked for it to not exist.
	infos, err := c.SessionList(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if err := c.SessionDelete(context.Background(), info.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, info.ID+snapshotExt)); !os.IsNotExist(err) {
			t.Fatalf("deleted session %s left its snapshot behind", info.ID)
		}
	}
	_ = srv
}

// TestIndentedSnapshotRestores: snapshots are written compact, and a
// snapshot in the indented form earlier daemons wrote still restores —
// same fingerprint, and a non-reset delta against the fingerprint the
// session had before its last edit.
func TestIndentedSnapshotRestores(t *testing.T) {
	if SnapshotVersion != 1 {
		t.Fatalf("SnapshotVersion = %d: compact snapshots need no new version", SnapshotVersion)
	}
	dir, old := t.TempDir(), t.TempDir()
	text, _ := cmosCIF(t, 2, 2)
	ctx := context.Background()
	_, c1 := newTestServer(t, Config{Debounce: -1, StateDir: dir})
	created, err := c1.SessionCreate(ctx, CreateRequest{Name: "old", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
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
	name := created.ID + snapshotExt
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("\n")) {
		t.Fatal("snapshot file is not compact")
	}
	snap, err := ReadSnapshotFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, name), indented, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Config{Debounce: -1, StateDir: old})
	if n, errs := srv2.RestoreFromDisk(ctx); n != 1 || len(errs) > 0 {
		t.Fatalf("restore: %d sessions, errs %v", n, errs)
	}
	rep, err := c2.SessionReport(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint != broken.Fingerprint {
		t.Fatalf("restored fingerprint %s != snapshotted %s", rep.Fingerprint, broken.Fingerprint)
	}
	d, err := c2.SessionReportSince(ctx, created.ID, created.Report.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset || d.Base != created.Report.Fingerprint || d.Fingerprint != broken.Fingerprint {
		t.Fatalf("delta against the pre-edit fingerprint: reset=%v base=%s fingerprint=%s", d.Reset, d.Base, d.Fingerprint)
	}
}

// TestSnapshotParentLayout: embedding the create request in the
// snapshot keeps the version 1 layout. A snapshot in the layout written
// before — flat name, design_name, tech, metric, noconstruct and cif keys
// around the id — restores with its own fingerprint, name and design,
// and a written snapshot has that layout's key set.
func TestSnapshotParentLayout(t *testing.T) {
	if SnapshotVersion != 1 {
		t.Fatalf("SnapshotVersion = %d, want 1", SnapshotVersion)
	}
	ctx := context.Background()
	text, _ := cmosCIF(t, 2, 2)
	dir := t.TempDir()
	_, c := newTestServer(t, Config{Debounce: -1, StateDir: dir})
	created, err := c.SessionCreate(ctx, CreateRequest{Name: "flat", CIF: text, Tech: "cmos", Metric: "ortho", NoConstruct: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(ctx, created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapshotAll(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, created.ID+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "check_ns cif classes design_name fingerprint generation history id metric name noconstruct saved_unix_ns schema tech version"; got != want {
		t.Fatalf("snapshot keys\n %s\nwant\n %s", got, want)
	}

	cifJSON, _ := json.Marshal(text)
	old := fmt.Sprintf(`{"version":1,"schema":"snapshot/v1","fingerprint":%q,"id":"s4","name":"flat","design_name":"chip","tech":"cmos","metric":"ortho","noconstruct":true,"generation":0,"saved_unix_ns":1,"cif":%s}`,
		created.Report.Fingerprint, cifJSON)
	oldDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(oldDir, "s4"+snapshotExt), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, c2 := newTestServer(t, Config{Debounce: -1, StateDir: oldDir})
	if n, errs := srv2.RestoreFromDisk(ctx); n != 1 || len(errs) > 0 {
		t.Fatalf("restore: %d sessions, errs %v", n, errs)
	}
	st, err := c2.SessionStats(ctx, "s4")
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "flat" || st.Design != "chip" || !st.Restored {
		t.Fatalf("restored session %q design %q restored %v", st.Name, st.Design, st.Restored)
	}
	rep, err := c2.SessionReport(ctx, "s4")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint != created.Report.Fingerprint {
		t.Fatalf("restored fingerprint %s, snapshot's %s", rep.Fingerprint, created.Report.Fingerprint)
	}
}

// TestSnapshotKeepsNames: a session keeps its names across a restart. A
// net or instance name CIF cannot carry is refused at the edit — 400,
// the valid prefix applied — instead of being rewritten by the snapshot,
// and a design name CIF cannot carry (a path, a space, a parenthesis
// that would unbalance a comment) comes back from the snapshot's
// design_name, so every session restores with its own fingerprint.
func TestSnapshotKeepsNames(t *testing.T) {
	dir := t.TempDir()
	text, _ := cmosCIF(t, 2, 2)
	_, body, _ := strings.Cut(text, "DS ")
	unnamed := "DS " + body // no top-level 9 command: the request names the design
	ctx := context.Background()
	_, c1 := newTestServer(t, Config{Debounce: -1, StateDir: dir})
	want := map[string]*Report{}
	for _, name := range []string{"examples/chip.cif", "my chip", "a)b", "a(b"} {
		created, err := c1.SessionCreate(ctx, CreateRequest{DesignName: name, CIF: unnamed, Tech: "cmos"})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if created.Report.Design != name {
			t.Fatalf("design %q named %q", name, created.Report.Design)
		}
		want[created.ID] = created.Report
	}

	created, err := c1.SessionCreate(ctx, CreateRequest{Name: "nets", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	probe := layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal, Box: []int64{-40000, 0, -39000, 1000}}
	bad := []layout.Edit{
		{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal, Box: []int64{-30000, 0, -29000, 1000}, Net: "a b"},
		{Op: layout.OpAddWire, Symbol: "chip", Layer: tech.CMOSMetal, Width: 400, Path: []int64{-30000, 0, -29000, 0}, Net: "x$1"},
		{Op: layout.OpAddCall, Symbol: "chip", Target: "cmos-row", Name: "r 9", DY: 36000},
	}
	for _, e := range bad {
		body, _ := json.Marshal(EditRequest{Edits: []layout.Edit{probe, e}})
		resp, err := http.Post(c1.BaseURL+"/v1/sessions/"+created.ID+"/edits", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er EditResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || er.Applied != 1 {
			t.Fatalf("%s %q: got %d %+v (%v), want 400 with 1 applied", e.Op, e.Net+e.Name, resp.StatusCode, er, err)
		}
	}
	if want[created.ID], err = c1.SessionReport(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SnapshotAll(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Config{Debounce: -1, StateDir: dir})
	if n, errs := srv2.RestoreFromDisk(ctx); n != len(want) || len(errs) > 0 {
		t.Fatalf("restored %d of %d sessions, errors %v", n, len(want), errs)
	}
	for id, w := range want {
		got, err := c2.SessionReport(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != w.Fingerprint || got.Design != w.Design {
			t.Fatalf("%s: restored %q %s, saved %q %s", id, got.Design, got.Fingerprint, w.Design, w.Fingerprint)
		}
	}
}

// TestSnapshotKeepsSynthesizedTop: a design whose CIF has top-level
// content has a top named "(top)", and it keeps that name across a
// restart, so an edit addressing it is accepted after the restore as
// before, and the restored report is the saved one. The second session
// takes the server's default design name, "design", which the snapshot's
// CIF carries as a 9 command.
func TestSnapshotKeepsSynthesizedTop(t *testing.T) {
	ctx := context.Background()
	src := "DS 1; 9 leaf; L NM; B 750 750 375 375; DF;\n9I u1; C 1 T 3000 0;\nL NM; B 750 750 375 375;\nE\n"
	probe := func(y int64) []layout.Edit {
		return []layout.Edit{{Op: layout.OpAddBox, Symbol: "(top)", Layer: tech.NMOSMetal, Box: []int64{0, y, 750, y + 750}}}
	}
	dir := t.TempDir()
	_, c1 := newTestServer(t, Config{Debounce: -1, StateDir: dir})
	saved := map[string]string{}
	for _, req := range []CreateRequest{{CIF: src, Tech: "nmos", DesignName: "chip"}, {CIF: src, Tech: "nmos"}} {
		created, err := c1.SessionCreate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c1.SessionEdit(ctx, created.ID, probe(6000)); err != nil {
			t.Fatalf("edit on (top) before the restart: %v", err)
		}
		rep, err := c1.SessionReport(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		saved[created.ID] = rep.Fingerprint
	}
	if _, err := c1.SnapshotAll(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Config{Debounce: -1, StateDir: dir})
	if n, errs := srv2.RestoreFromDisk(ctx); n != len(saved) || len(errs) > 0 {
		t.Fatalf("restore: %d of %d sessions, errs %v", n, len(saved), errs)
	}
	for id, fp := range saved {
		got, err := c2.SessionReport(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != fp {
			t.Fatalf("%s: restored fingerprint %s, saved %s", id, got.Fingerprint, fp)
		}
		body, _ := json.Marshal(EditRequest{Edits: probe(9000)})
		resp, err := http.Post(c2.BaseURL+"/v1/sessions/"+id+"/edits", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: edit on (top) after the restore: %d %s, want 200", id, resp.StatusCode, msg)
		}
	}
}

// TestSnapshotIDMustMatchFileName refuses a snapshot whose id is not its
// file's name: one saying it is another session, which would restore
// under that id and leave its own file behind, and one whose id holds a
// path separator, which the write and delete paths would join into a
// path outside the state directory.
func TestSnapshotIDMustMatchFileName(t *testing.T) {
	dir := t.TempDir()
	snap := &SessionSnapshot{Version: SnapshotVersion, ID: "s7", CreateRequest: CreateRequest{CIF: "E"}, Envelope: Envelope{Fingerprint: "f"}}
	if _, err := WriteSnapshotFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(filepath.Join(dir, "s7"+snapshotExt)); err != nil {
		t.Fatalf("a snapshot under its own id: %v", err)
	}
	for _, tc := range []struct{ file, id string }{
		{"s3", "s7"},
		{"s3", "../s3"},
		{"s3", "x/s3"},
	} {
		snap.ID = tc.id
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.file+snapshotExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshotFile(path); err == nil {
			t.Fatalf("%s holding id %q was accepted", filepath.Base(path), tc.id)
		}
	}

	// At boot the mismatched file is reported, not restored under the id
	// it claims.
	srv, _ := newTestServer(t, Config{Debounce: -1, StateDir: t.TempDir()})
	snap.ID = "s7"
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srv.cfg.StateDir, "s3"+snapshotExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, errs := srv.RestoreFromDisk(context.Background()); n != 0 || len(errs) != 1 {
		t.Fatalf("restore: %d sessions, errs %v; want 0 and one error", n, errs)
	}
}

// FuzzReadSnapshotFile: arbitrary bytes under an arbitrary file name never
// panic the snapshot reader, and a file it accepts, written back with
// WriteSnapshotFile, reads again and writes back to the same bytes.
func FuzzReadSnapshotFile(f *testing.F) {
	valid := `{"version":1,"schema":"snapshot/v1","fingerprint":"f0","id":"s1","design_name":"d","tech":"cmos","generation":2,"saved_unix_ns":5,"cif":"DS 1; DF; E","history":[{"fingerprint":"f0","violations":[{"rule":"S.NM","severity":"error","where":{"x1":0,"y1":-1,"x2":1,"y2":1},"layer":3,"nets":["a"]}]}],"classes":{"S":1},"check_ns":7}`
	f.Add("s1", []byte(valid))
	f.Add("s2", []byte(valid))
	f.Add("s1", []byte(`{"version":1,"id":"s1","cif":"E","fingerprint":"\ud800é","deck":"tech x\n","metric":"ortho","noconstruct":true}`))
	f.Add("s1", []byte(`{"version":2,"id":"s1","cif":"E","fingerprint":"f"}`))
	f.Add("s1", []byte(`{"version":1,"id":"../s1","cif":"E","fingerprint":"f"}`))
	f.Add("s1", []byte(`{"version":1,"id":"s1","id":"s1","cif":"E","fingerprint":"f","unknown":[1,{"a":null}]}`))
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if name == "" || len(name) > 64 || filepath.Base(name) != name || strings.ContainsAny(name, "\x00/\\") || name == "." || name == ".." {
			return
		}
		dir := t.TempDir()
		path := filepath.Join(dir, name+snapshotExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return // a name the file system refuses
		}
		snap, err := ReadSnapshotFile(path)
		if err != nil {
			return
		}
		if snap.ID != name {
			t.Fatalf("%s accepted with id %q", filepath.Base(path), snap.ID)
		}
		first, err := WriteSnapshotFile(t.TempDir(), snap)
		if err != nil {
			t.Fatalf("write back: %v", err)
		}
		again, err := ReadSnapshotFile(first)
		if err != nil {
			t.Fatalf("the written-back snapshot is refused: %v", err)
		}
		second, err := WriteSnapshotFile(t.TempDir(), again)
		if err != nil {
			t.Fatalf("second write back: %v", err)
		}
		b1, err1 := os.ReadFile(first)
		b2, err2 := os.ReadFile(second)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("write-back is not stable:\n%s\n%s", b1, b2)
		}
	})
}
