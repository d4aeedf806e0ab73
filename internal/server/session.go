package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tech"
)

// sessionOrigin records how a session's technology and options were
// specified at creation, so a snapshot can restore an identical engine.
type sessionOrigin struct {
	Tech        string // registered technology name ("" when deck-created)
	Deck        string // rule-deck source text ("" when registry-created)
	Metric      string // "", "euclid", or "ortho"
	NoConstruct bool
}

// injectState is the fault-injection test hook (enabled by Config
// .TestHooks): slow consumes SlowN engine runs with an artificial
// context-respecting sleep, panicN makes the next N session operations
// panic. Production daemons never register the endpoint that sets it.
type injectState struct {
	slow   time.Duration
	slowN  int
	panicN int
}

// Session is one named check session: a design, the technology it is
// checked under, and a long-lived incremental engine. All engine and
// design access is serialized by mu; distinct sessions share nothing, so
// the daemon checks them concurrently across goroutines.
//
// Edits are applied to the design immediately (mutation is cheap — it is
// the recheck that costs), but the recheck itself is debounced: a burst of
// N edit batches marks the session dirty N times and pays for one Recheck,
// run either by the debounce timer after the burst goes quiet or by the
// next /report request, whichever comes first. A client asking for the
// report therefore always gets the post-batch result.
//
// A session can be poisoned: a panic recovered while operating on it
// quarantines this session only — every subsequent request gets a 500
// with class "poisoned", the engine refuses further runs, and every
// other session keeps serving.
type Session struct {
	ID   string
	Name string

	mu     sync.Mutex
	design *layout.Design
	tc     *tech.Technology
	eng    *core.Engine
	rep    *core.Report // last completed run's report
	fp     string       // rep's digest, computed once when the run completed
	dirty  bool         // edits applied since rep was produced
	closed bool
	poison error // non-nil: quarantined after a recovered panic

	origin   sessionOrigin
	restored bool // rebuilt from an on-disk snapshot at boot

	debounce time.Duration
	timer    *time.Timer
	timerGen int // invalidates fired-but-not-yet-run timer callbacks

	// adm is the owning server's admission queue; engine runs (the cold
	// check aside, which the create handler admits itself) go through it.
	adm *admission

	inject injectState

	stats SessionStats
	// pendingBatches/pendingEdits accumulate the burst since the last
	// flush; flushLocked moves them into the LastFlush* stats.
	pendingBatches int
	pendingEdits   int

	// history is the bounded ring of recent completed states (newest
	// last, current state always present) that the report-delta path
	// diffs against: a client presenting any fingerprint still in the
	// ring gets added/removed instead of the full list. Entries retain
	// the completed reports' violation slices — the engine never mutates
	// a published report, so no copies are made. Snapshot-persisted, so
	// deltas survive a daemon restart.
	history []reportState
	histCap int

	// snapGen/snapClean record the edit generation and dirtiness the last
	// written snapshot captured, so periodic snapshotting skips sessions
	// that have not changed since.
	snapGen  int
	snapDone bool

	// inflight counts requests currently inside this session's handlers
	// (waiting on the mutex included) — the per-session gauge on /stats.
	inflight atomic.Int32

	// lastUsed is read/written under the owning Server's mutex (not the
	// session's), where LRU and idle eviction decisions are made.
	lastUsed time.Time
	created  time.Time
}

// SessionStats counts a session's service-level activity. Rechecks is the
// total number of engine runs including the initial cold check, so
// (Rechecks - 1) per-burst deltas make debouncing observable via /stats.
// The duration and flush-size fields make the windowed-recheck speedup
// observable from outside: a sub-millisecond LastRecheckNS on an edit
// session means the patch path is engaging.
type SessionStats struct {
	EditsApplied    int `json:"edits_applied"`
	EditBatches     int `json:"edit_batches"`
	Rechecks        int `json:"rechecks"`
	DebounceFlushes int `json:"debounce_flushes"` // rechecks run by the timer
	ReportFlushes   int `json:"report_flushes"`   // rechecks run by a report request

	LastRecheckNS  int64 `json:"last_recheck_ns"`  // duration of the most recent engine run
	TotalRecheckNS int64 `json:"total_recheck_ns"` // cumulative engine-run time, cold check included
	// LastFlushBatches/LastFlushEdits are the size of the burst the most
	// recent recheck coalesced — how much work one debounce window absorbed.
	LastFlushBatches int `json:"last_flush_batches"`
	LastFlushEdits   int `json:"last_flush_edits"`

	// DeltaReports counts ?since= report requests; DeltaResets the subset
	// that fell back to a reset (fingerprint unknown or evicted from the
	// history ring). A reset ratio near 1 means the ring is too small for
	// the client's polling cadence.
	DeltaReports int `json:"delta_reports"`
	DeltaResets  int `json:"delta_resets"`
}

// reportState is one history-ring entry: a completed run's fingerprint
// and its sorted violation sequence — everything a merge-diff needs.
type reportState struct {
	fp string
	vs []core.Violation
}

// newSession parses nothing — the server constructs it with a validated
// design and technology — and runs the initial cold check under ctx.
func newSession(ctx context.Context, id, name string, d *layout.Design, tc *tech.Technology, opts core.Options, origin sessionOrigin, adm *admission, debounce time.Duration, histCap int, now time.Time) (*Session, error) {
	s := &Session{
		ID:       id,
		Name:     name,
		design:   d,
		tc:       tc,
		eng:      core.NewEngine(tc, opts),
		origin:   origin,
		adm:      adm,
		debounce: debounce,
		histCap:  histCap,
		lastUsed: now,
		created:  now,
	}
	start := time.Now()
	rep, err := s.eng.CheckContext(ctx, d)
	if err != nil {
		return nil, err
	}
	s.rep, s.fp = rep, digest(rep)
	s.stats.Rechecks = 1
	s.stats.LastRecheckNS = time.Since(start).Nanoseconds()
	s.stats.TotalRecheckNS = s.stats.LastRecheckNS
	s.pushHistoryLocked()
	return s, nil
}

// pushHistoryLocked records the current report in the bounded history
// ring. A run that reproduced the previous state exactly (same
// fingerprint) is not re-pushed — it would only waste a slot on a state
// the ring already covers.
func (s *Session) pushHistoryLocked() {
	if s.histCap <= 0 || s.rep == nil {
		return
	}
	if n := len(s.history); n > 0 && s.history[n-1].fp == s.fp {
		return
	}
	s.history = append(s.history, reportState{fp: s.fp, vs: s.rep.Violations})
	if len(s.history) > s.histCap {
		// Shift rather than reslice so the evicted head's backing report
		// becomes collectible.
		copy(s.history, s.history[1:])
		s.history[len(s.history)-1] = reportState{}
		s.history = s.history[:len(s.history)-1]
	}
}

// lookupHistoryLocked finds a fingerprint in the ring, newest first (a
// polling client's `since` is almost always the newest entry).
func (s *Session) lookupHistoryLocked(fp string) ([]core.Violation, bool) {
	for i := len(s.history) - 1; i >= 0; i-- {
		if s.history[i].fp == fp {
			return s.history[i].vs, true
		}
	}
	return nil, false
}

// gateLocked is the state check every operation starts with: a closed
// session answers 410 (it was evicted or deleted while the request raced
// it), a poisoned one 500 with the quarantine class.
func (s *Session) gateLocked() *svcError {
	if s.closed {
		return errf(http.StatusGone, ClassGone, "session %s is gone (evicted or deleted)", s.ID)
	}
	if s.poison != nil {
		return errf(http.StatusInternalServerError, ClassPoisoned,
			"session %s poisoned: %v", s.ID, s.poison)
	}
	return nil
}

// faultPointLocked fires the injected faults: a pending panic panics (the
// handler's recovery poisons the session), nothing else. The injected
// slowness fires inside flushLocked where a genuinely slow recheck would.
func (s *Session) faultPointLocked() {
	if s.inject.panicN > 0 {
		s.inject.panicN--
		panic(fmt.Sprintf("injected fault (test hook) in session %s", s.ID))
	}
}

// setInject arms the fault-injection state (test hook endpoint).
func (s *Session) setInject(slow time.Duration, slowN, panicN int) *svcError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return err
	}
	s.inject = injectState{slow: slow, slowN: slowN, panicN: panicN}
	return nil
}

// poisonWith quarantines the session after a recovered panic: the engine
// refuses further runs, the debounce timer is disarmed, and every
// subsequent request is answered with the poisoned error class. It takes
// the lock itself — the panic already unwound through the deferred
// unlock of whatever operation was in flight.
func (s *Session) poisonWith(reason error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poison != nil {
		return
	}
	s.poison = reason
	s.eng.Poison(reason)
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// applyEdits applies one edit batch under the session lock and arms the
// debounce timer. It returns the number applied and the total batch count
// (the edit generation).
func (s *Session) applyEdits(edits []layout.Edit) (applied, generation int, serr *svcError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return 0, 0, err
	}
	s.faultPointLocked()
	n, err := layout.ApplyEdits(s.design, s.tc, edits)
	s.stats.EditsApplied += n
	s.pendingEdits += n
	if n > 0 || err == nil {
		s.stats.EditBatches++
		s.pendingBatches++
		s.dirty = true
		s.armTimerLocked()
	}
	if err != nil {
		// The successful prefix is applied and will be rechecked; the
		// caller reports partial application so the client can reconcile.
		return n, s.stats.EditBatches, errf(http.StatusBadRequest, ClassBadRequest, "%v", err)
	}
	return n, s.stats.EditBatches, nil
}

// armTimerLocked (re)starts the debounce timer; each new batch pushes the
// flush out by the full window, so a rapid burst coalesces into one run.
// The generation stamp invalidates a timer whose callback already fired
// and is waiting on the lock — Stop can't cancel those, and without the
// stamp such a callback would flush immediately instead of being pushed
// out.
func (s *Session) armTimerLocked() {
	if s.debounce <= 0 {
		return
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timerGen++
	gen := s.timerGen
	s.timer = time.AfterFunc(s.debounce, func() { s.timerFlush(gen) })
}

// timerFlush is the debounce timer callback: recheck if still dirty and
// not superseded. A stale timer — one that lost the race with a report
// flush (dirty false) or with a newer edit batch (generation mismatch) —
// does nothing. The flush goes through the admission queue without
// waiting: if no slot is free the timer simply re-arms, so background
// work never contributes to a queue pileup. A panic in the background
// flush poisons the session exactly like a handler panic would.
func (s *Session) timerFlush(gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			reason := fmt.Errorf("panic in debounce flush: %v", r)
			// The lock is held here (this defer runs before the unlock);
			// poison inline rather than via poisonWith.
			if s.poison == nil {
				s.poison = reason
				s.eng.Poison(reason)
				if s.timer != nil {
					s.timer.Stop()
					s.timer = nil
				}
			}
		}
	}()
	if s.closed || s.poison != nil || !s.dirty || gen != s.timerGen {
		return
	}
	if s.adm != nil && !s.adm.tryAcquire() {
		// No free slot: push the flush out by another window instead of
		// queuing — the next report request or timer firing will get it.
		s.armTimerLocked()
		return
	}
	if s.adm != nil {
		defer s.adm.release()
	}
	s.faultPointLocked()
	if err := s.flushLocked(context.Background()); err == nil {
		s.stats.DebounceFlushes++
	}
}

// flushLocked runs the incremental Recheck over the accumulated edits.
// On failure the session stays dirty and keeps the previous report; the
// error surfaces on the report request that forced the flush. The
// injected slow-check hook sleeps here, context-respecting, simulating a
// recheck that outlives its deadline.
func (s *Session) flushLocked(ctx context.Context) error {
	if s.inject.slowN > 0 && s.inject.slow > 0 {
		s.inject.slowN--
		t := time.NewTimer(s.inject.slow)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	start := time.Now()
	rep, err := s.eng.RecheckContext(ctx, s.design)
	if err != nil {
		return err
	}
	s.rep, s.fp = rep, digest(rep)
	s.dirty = false
	s.stats.Rechecks++
	s.stats.LastRecheckNS = time.Since(start).Nanoseconds()
	s.stats.TotalRecheckNS += s.stats.LastRecheckNS
	s.stats.LastFlushBatches, s.pendingBatches = s.pendingBatches, 0
	s.stats.LastFlushEdits, s.pendingEdits = s.pendingEdits, 0
	s.pushHistoryLocked()
	return nil
}

// classifyRunErr maps an engine-run failure onto the wire contract:
// deadline/cancellation → 503 timeout (retry later), anything else → 422
// (the design itself cannot be checked).
func classifyRunErr(err error) *svcError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errf(http.StatusServiceUnavailable, ClassTimeout, "check deadline expired: %v", err)
	}
	return errf(http.StatusUnprocessableEntity, ClassFailed, "%v", err)
}

// flushPendingLocked rechecks pending edits before a report read, so the
// caller always observes the post-batch result. The flush is engine work,
// so it is admitted through the bounded queue under the request's context.
func (s *Session) flushPendingLocked(ctx context.Context) *svcError {
	if !s.dirty {
		return nil
	}
	if s.adm != nil {
		if serr := s.adm.acquire(ctx); serr != nil {
			return serr
		}
		defer s.adm.release()
	}
	if err := s.flushLocked(ctx); err != nil {
		return classifyRunErr(err)
	}
	s.stats.ReportFlushes++
	return nil
}

// report returns the wire report for the current design state, flushing
// pending edits first.
func (s *Session) report(ctx context.Context) (*Report, *svcError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return nil, err
	}
	s.faultPointLocked()
	if err := s.flushPendingLocked(ctx); err != nil {
		return nil, err
	}
	return buildReport(s.fp, s.rep, s.eng), nil
}

// reportDelta answers GET .../report?since=<fp>: the current state as a
// delta against the client's base fingerprint. Like report it flushes
// pending edits first, so the delta always reflects every acknowledged
// batch. An unknown or evicted base (or the empty fingerprint a cold
// client sends) degrades to a reset delta carrying the full list.
func (s *Session) reportDelta(ctx context.Context, since string) (*ReportDelta, *svcError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return nil, err
	}
	s.faultPointLocked()
	if err := s.flushPendingLocked(ctx); err != nil {
		return nil, err
	}
	s.stats.DeltaReports++
	if prev, ok := s.lookupHistoryLocked(since); ok && since != "" {
		return buildDelta(s.fp, since, prev, s.rep, s.eng), nil
	}
	s.stats.DeltaResets++
	return buildResetDelta(s.fp, s.rep, s.eng), nil
}

// StatsResponse is the /stats payload: service counters plus the engine's
// cache-effectiveness counters for the session's most recent run.
type StatsResponse struct {
	ID         string       `json:"id"`
	Name       string       `json:"name"`
	Design     string       `json:"design"`
	Tech       string       `json:"tech"`
	Dirty      bool         `json:"dirty"` // edits pending a recheck
	Poisoned   bool         `json:"poisoned"`
	Restored   bool         `json:"restored"` // rebuilt from a snapshot at boot
	Inflight   int32        `json:"inflight"` // requests currently inside this session
	DebounceNS int64        `json:"debounce_ns"`
	Session    SessionStats `json:"session"`
	Engine     EngineStats  `json:"engine"`
}

// statsSnapshot assembles the /stats payload. Unlike the other
// operations it answers for poisoned sessions too — observability is how
// a quarantine gets noticed.
func (s *Session) statsSnapshot() (*StatsResponse, *svcError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errf(http.StatusGone, ClassGone, "session %s is gone (evicted or deleted)", s.ID)
	}
	return &StatsResponse{
		ID:         s.ID,
		Name:       s.Name,
		Design:     s.design.Name,
		Tech:       s.tc.Name,
		Dirty:      s.dirty,
		Poisoned:   s.poison != nil,
		Restored:   s.restored,
		Inflight:   s.inflight.Load(),
		DebounceNS: s.debounce.Nanoseconds(),
		Session:    s.stats,
		Engine:     *engineWire(s.eng.Stats()),
	}, nil
}

// close marks the session dead and stops its timer. Called with the
// session lock NOT held; it serializes after any in-flight operation, so
// a request that raced the eviction observes a clean 410, never a torn
// state.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// info summarizes the session for listings.
func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		ID:       s.ID,
		Name:     s.Name,
		Design:   s.design.Name,
		Tech:     s.tc.Name,
		Clean:    s.rep != nil && !s.dirty && countErrors(s.rep.Violations) == 0,
		Dirty:    s.dirty,
		Poisoned: s.poison != nil,
		Edits:    s.stats.EditsApplied,
		Rechecks: s.stats.Rechecks,
	}
}

// SessionInfo is one row of the session listing.
type SessionInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Design   string `json:"design"`
	Tech     string `json:"tech"`
	Clean    bool   `json:"clean"` // last report clean and no pending edits
	Dirty    bool   `json:"dirty"`
	Poisoned bool   `json:"poisoned,omitempty"`
	Edits    int    `json:"edits"`
	Rechecks int    `json:"rechecks"`
}
