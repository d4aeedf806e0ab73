package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cif"
)

// SnapshotVersion is the on-disk session snapshot format version. A
// reader refuses versions it does not know; bump it on any breaking
// field change.
const SnapshotVersion = 1

// snapshotExt is the snapshot filename suffix; one file per session,
// named <id>.snap, in the configured state directory.
const snapshotExt = ".snap"

// SessionSnapshot is the versioned on-disk form of one session (schema
// snapshot/v1 in the shared Envelope): the request the session was
// created from, with the current design as its CIF and the design's
// actual name, and the envelope of the last completed report. Restore is
// create from the saved request: it opens the session again and refuses
// the snapshot unless the cold check's fingerprint matches — a restored
// session is bit-for-bit the session that was saved, or it is nothing.
//
// History carries the session's delta ring (see Session.history), so a
// client polling ?since= across a daemon restart still gets a delta, not
// a reset.
type SessionSnapshot struct {
	Version int `json:"version"`
	Envelope
	ID string `json:"id"`
	CreateRequest
	Generation  int            `json:"generation"` // edit batches absorbed into this state
	SavedUnixNS int64          `json:"saved_unix_ns"`
	History     []HistoryEntry `json:"history,omitempty"`
}

// HistoryEntry is one persisted delta-ring state, oldest first; the
// newest entry is always the snapshot's own state.
type HistoryEntry struct {
	Fingerprint string      `json:"fingerprint"`
	Violations  []Violation `json:"violations"`
}

// Snapshot serializes the session's current state. Pending edits are
// flushed first so the stored fingerprint describes exactly the stored
// CIF. It returns (nil, nil) when the state is unchanged since the last
// successful snapshot — periodic snapshotting skips idle sessions for
// free. Closed or poisoned sessions return an error (a quarantined
// design state must not be resurrected as if it were healthy).
func (s *Session) Snapshot(now time.Time) (*SessionSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return nil, err
	}
	if s.dirty {
		if err := s.flushLocked(context.Background()); err != nil {
			return nil, fmt.Errorf("flush before snapshot: %w", err)
		}
	}
	if s.snapDone && s.snapGen == s.stats.EditBatches {
		return nil, nil
	}
	text, err := cif.Write(s.design, s.tc)
	if err != nil {
		return nil, fmt.Errorf("serialize design: %w", err)
	}
	hist := make([]HistoryEntry, 0, len(s.history))
	for _, h := range s.history {
		hist = append(hist, HistoryEntry{Fingerprint: h.fp, Violations: violationsWire(h.vs)})
	}
	req := s.req
	req.DesignName, req.CIF = s.design.Name, text
	return &SessionSnapshot{
		Version:       SnapshotVersion,
		Envelope:      buildEnvelope(SchemaSnapshot, s.fp, s.rep),
		ID:            s.ID,
		CreateRequest: req,
		Generation:    s.stats.EditBatches,
		SavedUnixNS:   now.UnixNano(),
		History:       hist,
	}, nil
}

// noteSnapshotted records that a snapshot at the given generation is
// durable on disk.
func (s *Session) noteSnapshotted(gen int) {
	s.mu.Lock()
	s.snapDone, s.snapGen = true, gen
	s.mu.Unlock()
}

// WriteSnapshotFile persists one snapshot atomically: write to a temp
// file in the same directory, fsync the file, rename over the final
// name, fsync the directory. A crash at any point leaves either the old
// snapshot or the new one, never a torn file.
func WriteSnapshotFile(dir string, snap *SessionSnapshot) (string, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return "", err
	}
	final := filepath.Join(dir, snap.ID+snapshotExt)
	tmp, err := os.CreateTemp(dir, snap.ID+".tmp-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return final, nil
}

// ReadSnapshotFile loads and validates one snapshot file. The file is
// <id>.snap: a snapshot whose id differs from its file name — which any
// id holding a path separator does — is refused, so every path derived
// from a restored id is the file it came from.
func ReadSnapshotFile(path string) (*SessionSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap SessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("%s: snapshot version %d (supported: %d)", path, snap.Version, SnapshotVersion)
	}
	if snap.Schema != "" && snap.Schema != SchemaSnapshot {
		return nil, fmt.Errorf("%s: snapshot schema %q (supported: %q)", path, snap.Schema, SchemaSnapshot)
	}
	if snap.ID == "" || snap.CIF == "" || snap.Fingerprint == "" {
		return nil, fmt.Errorf("%s: snapshot missing id/cif/fingerprint", path)
	}
	if snap.ID != snapID(path) {
		return nil, fmt.Errorf("%s: snapshot id %q does not match its file name", path, snap.ID)
	}
	return &snap, nil
}

// restore rebuilds a live session from a snapshot: open it from the
// saved request, as create did, and assert the cold check's fingerprint
// matches the one saved before the crash. A mismatch refuses the session
// — serving a state that diverges from what the client last saw would
// break the parity contract silently.
func (s *Server) restore(ctx context.Context, snap *SessionSnapshot) (*Session, error) {
	sess, serr := s.open(ctx, snap.ID, snap.CreateRequest)
	if serr != nil {
		return nil, fmt.Errorf("restore %s: %w", snap.ID, serr)
	}
	if sess.fp != snap.Fingerprint {
		sess.close()
		return nil, fmt.Errorf("restore %s: fingerprint mismatch: recheck %s, snapshot %s",
			snap.ID, sess.fp, snap.Fingerprint)
	}
	// Rebuild the delta ring: the persisted entries older than the current
	// state slot in ahead of the entry the cold check just pushed, so a
	// client's pre-crash `since` fingerprint still resolves to a delta.
	if sess.histCap > 0 {
		var older []reportState
		for _, h := range snap.History {
			if h.Fingerprint == snap.Fingerprint {
				continue
			}
			older = append(older, reportState{fp: h.Fingerprint, vs: violationsCore(h.Violations)})
		}
		sess.history = append(older, sess.history...)
		if n := len(sess.history); n > sess.histCap {
			sess.history = append([]reportState(nil), sess.history[n-sess.histCap:]...)
		}
	}
	sess.restored = true
	sess.snapDone, sess.snapGen = true, 0
	return sess, nil
}

// SnapshotAll writes a snapshot for every live session whose state
// changed since its last snapshot. Failures are per-session: one
// unserializable session does not stop the sweep. Returns how many were
// written and the per-session errors.
func (s *Server) SnapshotAll(now time.Time) (saved int, errs []error) {
	if s.cfg.StateDir == "" {
		return 0, []error{fmt.Errorf("no state directory configured")}
	}
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		n, err := s.snapshotSession(sess, now)
		if err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", sess.ID, err))
			continue
		}
		saved += n
	}
	s.mu.Lock()
	s.stats.SnapshotsSaved += uint64(saved)
	s.mu.Unlock()
	return saved, errs
}

// snapshotSession snapshots one session to the state directory; returns
// 1 if a file was written, 0 if the session was unchanged.
func (s *Server) snapshotSession(sess *Session, now time.Time) (int, error) {
	snap, err := sess.Snapshot(now)
	if err != nil {
		return 0, err
	}
	if snap == nil {
		return 0, nil
	}
	if _, err := WriteSnapshotFile(s.cfg.StateDir, snap); err != nil {
		return 0, err
	}
	sess.noteSnapshotted(snap.Generation)
	return 1, nil
}

// removeSnapshot deletes a session's snapshot file (explicit DELETE —
// the user asked for the session to not exist, on disk included).
func (s *Server) removeSnapshot(id string) {
	if s.cfg.StateDir == "" {
		return
	}
	_ = os.Remove(filepath.Join(s.cfg.StateDir, id+snapshotExt))
}

// RestoreFromDisk rebuilds sessions from every snapshot in the state
// directory, oldest id first, up to the session cap. Each restored
// session's post-restore recheck is asserted fingerprint-identical to
// its snapshot (see restore); mismatching or unreadable snapshots
// are skipped and reported. The id counter resumes above the highest
// restored id, so new sessions never collide with restored ones.
func (s *Server) RestoreFromDisk(ctx context.Context) (restored int, errs []error) {
	if s.cfg.StateDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, []error{err}
	}
	var paths []string
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), snapshotExt) {
			continue
		}
		paths = append(paths, filepath.Join(s.cfg.StateDir, ent.Name()))
	}
	sort.Slice(paths, func(i, j int) bool { return lessID(snapID(paths[i]), snapID(paths[j])) })

	maxID := 0
	for _, path := range paths {
		snap, err := ReadSnapshotFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if n := idNum(snap.ID); n > maxID {
			maxID = n
		}
		s.mu.Lock()
		full := len(s.sessions) >= s.cfg.MaxSessions
		_, dup := s.sessions[snap.ID]
		s.mu.Unlock()
		if full {
			errs = append(errs, fmt.Errorf("%s: session cap reached, not restored", snap.ID))
			continue
		}
		if dup {
			errs = append(errs, fmt.Errorf("%s: already live, not restored", snap.ID))
			continue
		}
		sess, err := s.restore(ctx, snap)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		s.register(sess)
		restored++
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.stats.SnapshotsRestored += uint64(restored)
	s.mu.Unlock()
	return restored, errs
}

// snapID extracts the session id from a snapshot path.
func snapID(path string) string {
	return strings.TrimSuffix(filepath.Base(path), snapshotExt)
}

// idNum parses the numeric part of an "sN" session id (0 if malformed).
func idNum(id string) int {
	if !strings.HasPrefix(id, "s") {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}

// SnapshotSweepResponse reports what a forced snapshot sweep wrote.
type SnapshotSweepResponse struct {
	Saved  int      `json:"saved"`
	Errors []string `json:"errors,omitempty"`
}

// handleSnapshotNow is POST /v1/snapshot: force a snapshot sweep now and
// report what was written — how scripted drills make "the state on disk"
// a known quantity before pulling the plug.
func (s *Server) handleSnapshotNow(w http.ResponseWriter, r *http.Request) {
	if s.cfg.StateDir == "" {
		s.replyErr(w, errf(http.StatusBadRequest, ClassBadRequest, "no -state-dir configured"))
		return
	}
	saved, errs := s.SnapshotAll(s.clk.Now())
	resp := SnapshotSweepResponse{Saved: saved}
	for _, err := range errs {
		resp.Errors = append(resp.Errors, err.Error())
	}
	s.reply(w, http.StatusOK, resp)
}
