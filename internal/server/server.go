package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Config tunes the daemon. The zero value gets sensible defaults.
type Config struct {
	// MaxSessions caps live sessions; creating one past the cap evicts the
	// least-recently-used session (default 64).
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long (default 30m;
	// negative disables idle eviction).
	IdleTTL time.Duration
	// Debounce is the per-session edit-coalescing window: a recheck runs
	// this long after the last edit batch, or on the next report request,
	// whichever comes first (default 25ms; negative disables the timer,
	// leaving report requests as the only flush trigger).
	Debounce time.Duration

	// CheckTimeout bounds engine runs triggered by a request — the cold
	// check on create and the flush a report forces. On expiry the
	// request gets 503 + Retry-After (0 = no deadline).
	CheckTimeout time.Duration
	// MaxInflight is the engine-run concurrency cap fronting cold checks
	// and flushes (default: NumCPU, minimum 2).
	MaxInflight int
	// QueueDepth is how many engine runs may wait for a slot before new
	// arrivals are rejected with 429 (default 64; negative = 0).
	QueueDepth int
	// MaxBodyBytes caps request bodies on the POST endpoints; oversize
	// requests get 413 (default 64 MiB).
	MaxBodyBytes int64

	// ReportHistory is the per-session bounded ring of recent report
	// states the delta path (GET /v1/sessions/{id}/report?since=F) can
	// diff against (default 8; negative disables deltas — every ?since=
	// request answers with a reset).
	ReportHistory int

	// StateDir, when set, enables crash-safe session snapshots: restore
	// on boot (RestoreFromDisk), snapshot on Close, periodic snapshots
	// every SnapshotEvery, and snapshot-then-close eviction.
	StateDir string
	// SnapshotEvery is the periodic snapshot interval (0 disables the
	// periodic sweep; Close still snapshots).
	SnapshotEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 30 * time.Minute
	}
	if c.Debounce == 0 {
		c.Debounce = 25 * time.Millisecond
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.NumCPU()
		if c.MaxInflight < 2 {
			c.MaxInflight = 2
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.ReportHistory == 0 {
		c.ReportHistory = 8
	}
	if c.ReportHistory < 0 {
		c.ReportHistory = 0
	}
	return c
}

// serverStats are the daemon-wide counters behind GET /v1/stats.
type serverStats struct {
	PanicsRecovered   uint64
	SessionsPoisoned  uint64
	EvictionsLRU      uint64
	EvictionsIdle     uint64
	SnapshotsSaved    uint64
	SnapshotsRestored uint64
	DeltasServed      uint64
	DeltaResets       uint64
}

// Server is the check service: a session table behind an http.Handler.
// Handler methods are safe for concurrent use; per-session work is
// serialized by the session's own mutex, so requests against distinct
// sessions proceed in parallel. Engine runs are admitted through a
// bounded queue (Config.MaxInflight/QueueDepth), and every handler and
// timer callback runs under panic recovery that quarantines only the
// offending session, never the process.
type Server struct {
	cfg Config
	mux *http.ServeMux
	adm *admission

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	stats    serverStats
	// tiers holds one tier per technology and option set that live
	// sessions check under: every session's engine shares its key's tier,
	// so a cell one session has checked is not checked again by another.
	// A tier goes with the last session that uses it.
	tiers map[tierKey]*netlist.Tier
	// bytesOut counts response body bytes by wire class (wireReport…).
	bytesOut [wireClasses]atomic.Uint64

	// clk schedules everything time-driven: deadlines, debounce, the
	// janitor and snapshot loops, LRU and idle stamps.
	clk clock
	// loops are the pending janitor and snapshot-sweep timers (under mu);
	// closing stops them re-arming.
	loops   []timer
	closing bool

	start time.Time
}

// New creates a Server. Call Close when done to stop the background
// timers (idle janitor, periodic snapshots); if Config.StateDir is set,
// call RestoreFromDisk before serving to resurrect saved sessions.
func New(cfg Config) *Server { return newServer(cfg, realClock{}) }

// newServer is New on a given clock.
func newServer(cfg Config, clk clock) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInflight, cfg.QueueDepth),
		sessions: make(map[string]*Session),
		tiers:    make(map[tierKey]*netlist.Tier),
		clk:      clk,
		start:    time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/sessions/{id}/edits", s.handleEdits)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/stats", s.handleServerStats)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshotNow)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.reply(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux = mux
	if s.cfg.IdleTTL > 0 {
		s.every(s.cfg.IdleTTL/4, func() { s.SweepIdle(s.clk.Now()) })
	}
	if s.cfg.StateDir != "" && s.cfg.SnapshotEvery > 0 {
		s.every(s.cfg.SnapshotEvery, func() { s.SnapshotAll(s.clk.Now()) })
	}
	return s
}

// every runs f each time d elapses on the server's clock, until Close:
// the idle janitor and the periodic snapshot sweep. The next run is
// armed when the previous one returns, so runs never overlap.
func (s *Server) every(d time.Duration, f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := len(s.loops)
	var tick func()
	tick = func() {
		f()
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closing {
			s.loops[i] = s.clk.AfterFunc(d, tick)
		}
	}
	s.loops = append(s.loops, s.clk.AfterFunc(d, tick))
}

// ServeHTTP implements http.Handler. The outermost recovery is the
// process's last line of defense: a panic that escapes a handler (or the
// mux itself) is answered with a 500 and the daemon keeps serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.notePanic()
			// Best effort: if the handler already wrote headers this is a
			// lost cause for this response, but the process survives.
			s.replyErrClass(w, http.StatusInternalServerError, ClassPanic,
				fmt.Errorf("internal panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Close stops the background goroutines, snapshots every session when a
// state directory is configured (the graceful-shutdown snapshot), and
// closes every session.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	for _, t := range s.loops {
		t.Stop()
	}
	s.mu.Unlock()
	if s.cfg.StateDir != "" {
		s.SnapshotAll(s.clk.Now())
	}
	s.mu.Lock()
	victims := make([]*Session, 0, len(s.sessions))
	for id, sess := range s.sessions {
		victims = append(victims, sess)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	for _, sess := range victims {
		sess.close()
	}
}

// SweepIdle evicts every session idle since before now - IdleTTL and
// returns how many it removed. Eviction is snapshot-then-close: with a
// state directory configured the victim's state is persisted before the
// session dies, so an eviction never loses acknowledged edits.
func (s *Server) SweepIdle(now time.Time) int {
	if s.cfg.IdleTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.IdleTTL)
	s.mu.Lock()
	var victims []*Session
	for id, sess := range s.sessions {
		if sess.lastUsed.Before(cutoff) {
			victims = append(victims, sess)
			delete(s.sessions, id)
		}
	}
	s.stats.EvictionsIdle += uint64(len(victims))
	s.mu.Unlock()
	for _, sess := range victims {
		s.retire(sess)
	}
	return len(victims)
}

// retire persists a victim's state (best effort) and closes it —
// "snapshot, then close". Both steps serialize on the session mutex
// after any in-flight request; a request that raced the eviction gets a
// clean 410 from the closed session, never a torn state.
func (s *Server) retire(sess *Session) {
	if s.cfg.StateDir != "" {
		if n, err := s.snapshotSession(sess, s.clk.Now()); err == nil && n > 0 {
			s.mu.Lock()
			s.stats.SnapshotsSaved++
			s.mu.Unlock()
		}
	}
	sess.close()
}

// lookup fetches a session and bumps its LRU stamp.
func (s *Server) lookup(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if ok {
		sess.lastUsed = s.clk.Now()
	}
	return sess, ok
}

// register inserts a new session, evicting the least-recently-used one if
// the table is full (the lowest id among equally old ones).
func (s *Server) register(sess *Session) {
	s.mu.Lock()
	var victim *Session
	if len(s.sessions) >= s.cfg.MaxSessions {
		var oldest *Session
		for _, cand := range s.sessions {
			if oldest == nil || cand.lastUsed.Before(oldest.lastUsed) ||
				cand.lastUsed.Equal(oldest.lastUsed) && lessID(cand.ID, oldest.ID) {
				oldest = cand
			}
		}
		if oldest != nil {
			victim = oldest
			delete(s.sessions, oldest.ID)
			s.stats.EvictionsLRU++
		}
	}
	s.sessions[sess.ID] = sess
	s.mu.Unlock()
	if victim != nil {
		s.retire(victim)
	}
}

func (s *Server) notePanic() {
	s.mu.Lock()
	s.stats.PanicsRecovered++
	s.mu.Unlock()
}

// guardSession runs a session operation under panic recovery: a panic
// poisons that session only and comes back as a 500 with class "panic";
// every other session, the admission queue, and the process itself are
// untouched.
func (s *Server) guardSession(sess *Session, fn func() *svcError) (serr *svcError) {
	defer func() {
		if rec := recover(); rec != nil {
			s.notePanic()
			s.mu.Lock()
			s.stats.SessionsPoisoned++
			s.mu.Unlock()
			sess.poisonWith(fmt.Errorf("panic: %v", rec))
			serr = errf(http.StatusInternalServerError, ClassPanic,
				"session %s: recovered panic: %v (session poisoned)", sess.ID, rec)
		}
	}()
	return fn()
}

// opCtx derives the request context with the configured deadline.
func (s *Server) opCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return s.clk.WithTimeout(r.Context(), timeout)
}

// decodeBody decodes a JSON request body under the size cap, mapping
// oversize bodies to 413 and malformed JSON to 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *svcError {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errf(http.StatusRequestEntityTooLarge, ClassTooLarge,
				"request body over %d bytes", mbe.Limit)
		}
		return errf(http.StatusBadRequest, ClassBadRequest, "decode request: %v", err)
	}
	return nil
}

// CreateRequest creates a session from a CIF source and a technology. One
// of Tech (a shipped technology name) or Deck (rule-deck source text)
// selects the process. Name labels the session (and, when DesignName is
// empty, the design) for listings and client lookup.
type CreateRequest struct {
	Name       string `json:"name,omitempty"`
	DesignName string `json:"design_name,omitempty"`
	CIF        string `json:"cif"`
	Tech       string `json:"tech,omitempty"`
	Deck       string `json:"deck,omitempty"`
	// Metric selects the spacing metric: "" or "euclid", or "ortho".
	Metric string `json:"metric,omitempty"`
	// NoConstruct skips the non-geometric construction rules.
	NoConstruct bool `json:"noconstruct,omitempty"`
}

// CreateResponse returns the new session's id and the initial (cold)
// report.
type CreateResponse struct {
	ID     string  `json:"id"`
	Report *Report `json:"report"`
}

// resolveTech loads the request's technology: an uploaded deck builds a
// technology of the session's own, a built-in name resolves to the shared
// value (tech.ByName parses each embedded deck once per process).
func resolveTech(req *CreateRequest) (*tech.Technology, error) {
	if req.Deck != "" {
		tc, err := tech.LoadDeck(req.Deck, device.Classes())
		if err != nil {
			return nil, fmt.Errorf("deck: %w", err)
		}
		return tc, nil
	}
	name := req.Tech
	if name == "" {
		name = "nmos"
	}
	tc, ok := tech.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown technology %q", name)
	}
	return tc, nil
}

// resolveCreate resolves a create request into the technology and check
// options.
func resolveCreate(req *CreateRequest) (*tech.Technology, core.Options, error) {
	tc, err := resolveTech(req)
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := core.Options{SkipConstruction: req.NoConstruct}
	switch req.Metric {
	case "", "euclid":
	case "ortho":
		opts.Metric = core.Orthogonal
	default:
		return nil, core.Options{}, fmt.Errorf("unknown metric %q", req.Metric)
	}
	return tc, opts, nil
}

// tierKey selects the tier a session's engine shares: one technology value
// (a built-in one is one value per process; an uploaded deck is a value of
// its own) and the metric. A request's other option, noconstruct, reaches
// nothing a tier holds (core.NewEngineOn).
type tierKey struct {
	tc     *tech.Technology
	metric core.Metric
}

// engineFor builds a session's engine over the tier of its technology and
// options, and returns the func that gives the tier back once the engine
// is closed: the server drops a tier no engine uses.
func (s *Server) engineFor(tc *tech.Technology, opts core.Options) (*core.Engine, func()) {
	key := tierKey{tc, opts.Metric}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tiers[key]
	if t == nil {
		t = netlist.NewTier()
		s.tiers[key] = t
	}
	return core.NewEngineOn(t, tc, opts), func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.tiers[key] == t && t.Stats().Views == 0 {
			delete(s.tiers, key)
		}
	}
}

// open is the one way a session comes to be, on create and on restore:
// resolve the request's technology and options, parse its CIF, admit the
// cold check through the queue and run it under ctx. Create passes no id
// and the session takes the next one once its check is admitted; restore
// passes the snapshot's. The session keeps req without its CIF.
func (s *Server) open(ctx context.Context, id string, req CreateRequest) (*Session, *svcError) {
	tc, opts, err := resolveCreate(&req)
	if err != nil {
		return nil, errf(http.StatusBadRequest, ClassBadRequest, "%v", err)
	}
	designName := req.DesignName
	if designName == "" {
		designName = req.Name
	}
	if designName == "" {
		designName = "design"
	}
	d, err := cif.Parse(req.CIF, tc, designName)
	if errors.Is(err, layout.ErrTooLarge) {
		return nil, errf(http.StatusRequestEntityTooLarge, ClassTooLarge, "parse cif: %v", err)
	}
	if err != nil {
		return nil, errf(http.StatusBadRequest, ClassBadRequest, "parse cif: %v", err)
	}
	// The cold check is the most expensive thing the daemon does; it goes
	// through the admission queue like every other engine run.
	if serr := s.adm.acquire(ctx); serr != nil {
		return nil, serr
	}
	defer s.adm.release()
	if id == "" {
		s.mu.Lock()
		s.nextID++
		id = fmt.Sprintf("s%d", s.nextID)
		s.mu.Unlock()
	}
	req.CIF = ""
	now := s.clk.Now()
	eng, untier := s.engineFor(tc, opts)
	sess := &Session{
		ID:       id,
		req:      req,
		design:   d,
		tc:       tc,
		eng:      eng,
		untier:   untier,
		adm:      s.adm,
		clk:      s.clk,
		debounce: s.cfg.Debounce,
		histCap:  s.cfg.ReportHistory,
		lastUsed: now,
		created:  now,
	}
	// Every exit but success closes the session, a panic in the check
	// included, so its view releases what it reached.
	ok := false
	defer func() {
		if !ok {
			sess.close()
		}
	}()
	start := time.Now()
	rep, err := sess.eng.CheckContext(ctx, d)
	if err != nil {
		return nil, classifyRunErr(fmt.Errorf("initial check: %w", err))
	}
	sess.rep, sess.fp = rep, digest(rep)
	sess.stats.Rechecks = 1
	sess.stats.LastRecheckNS = time.Since(start).Nanoseconds()
	sess.stats.TotalRecheckNS = sess.stats.LastRecheckNS
	sess.pushHistoryLocked()
	ok = true
	return sess, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if serr := s.decodeBody(w, r, &req); serr != nil {
		s.replyErr(w, serr)
		return
	}
	if req.CIF == "" {
		s.replyErr(w, errf(http.StatusBadRequest, ClassBadRequest, "empty cif source"))
		return
	}
	ctx, cancel := s.opCtx(r, s.cfg.CheckTimeout)
	defer cancel()
	sess, serr := s.open(ctx, "", req)
	if serr != nil {
		s.replyErr(w, serr)
		return
	}
	// Build the response before publishing the session: the moment it is
	// registered, concurrent edits may mutate rep and the engine counters
	// under the session lock, which this handler no longer holds.
	resp := CreateResponse{ID: sess.ID, Report: buildReport(sess.fp, sess.rep, sess.eng)}
	s.register(sess)
	s.reply(w, http.StatusCreated, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		infos = append(infos, sess.info())
	}
	// Stable order for scripts: by numeric id via the sN format.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && lessID(infos[j].ID, infos[j-1].ID); j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	s.reply(w, http.StatusOK, infos)
}

// lessID orders "sN" ids numerically.
func lessID(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// EditRequest is one edit batch.
type EditRequest struct {
	Edits []layout.Edit `json:"edits"`
}

// EditResponse acknowledges an applied batch. Generation is the session's
// total batch count; the report endpoint always reflects every batch
// acknowledged before the request.
type EditResponse struct {
	Applied    int    `json:"applied"`
	Generation int    `json:"generation"`
	Error      string `json:"error,omitempty"`
}

func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.replyErr(w, errf(http.StatusNotFound, ClassNotFound, "no session %q", r.PathValue("id")))
		return
	}
	sess.inflight.Add(1)
	defer sess.inflight.Add(-1)
	var req EditRequest
	if serr := s.decodeBody(w, r, &req); serr != nil {
		s.replyErr(w, serr)
		return
	}
	if len(req.Edits) == 0 {
		s.replyErr(w, errf(http.StatusBadRequest, ClassBadRequest, "empty edit batch"))
		return
	}
	var resp EditResponse
	serr := s.guardSession(sess, func() *svcError {
		applied, gen, serr := sess.applyEdits(req.Edits)
		resp = EditResponse{Applied: applied, Generation: gen}
		return serr
	})
	if serr != nil {
		if serr.class == ClassBadRequest {
			// The successful prefix is applied and will be rechecked;
			// report partial application so the client can reconcile.
			resp.Error = serr.Error()
			s.reply(w, http.StatusBadRequest, resp)
			return
		}
		s.replyErr(w, serr)
		return
	}
	s.reply(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.replyErr(w, errf(http.StatusNotFound, ClassNotFound, "no session %q", r.PathValue("id")))
		return
	}
	sess.inflight.Add(1)
	defer sess.inflight.Add(-1)
	ctx, cancel := s.opCtx(r, s.cfg.CheckTimeout)
	defer cancel()
	if r.URL.Query().Has("since") {
		// Delta mode: ?since=<fingerprint> answers with added/removed
		// against that base; ?since= (empty) is the cold-client form and
		// always resets.
		var delta *ReportDelta
		serr := s.guardSession(sess, func() *svcError {
			var serr *svcError
			delta, serr = sess.reportDelta(ctx, r.URL.Query().Get("since"))
			return serr
		})
		if serr != nil {
			s.replyErr(w, serr)
			return
		}
		s.mu.Lock()
		s.stats.DeltasServed++
		if delta.Reset {
			s.stats.DeltaResets++
		}
		s.mu.Unlock()
		s.reply(w, http.StatusOK, delta)
		return
	}
	var rep *Report
	serr := s.guardSession(sess, func() *svcError {
		var serr *svcError
		rep, serr = sess.report(ctx)
		return serr
	})
	if serr != nil {
		s.replyErr(w, serr)
		return
	}
	s.reply(w, http.StatusOK, rep)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.replyErr(w, errf(http.StatusNotFound, ClassNotFound, "no session %q", r.PathValue("id")))
		return
	}
	st, serr := sess.statsSnapshot()
	if serr != nil {
		s.replyErr(w, serr)
		return
	}
	s.reply(w, http.StatusOK, st)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		s.replyErr(w, errf(http.StatusNotFound, ClassNotFound, "no session %q", id))
		return
	}
	sess.close()
	s.removeSnapshot(id)
	s.reply(w, http.StatusOK, DeleteResponse{Deleted: id})
}

// DeleteResponse acknowledges a session deletion.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// ServerStatsResponse is the GET /stats payload: global gauges and
// counters for capacity planning and bounded-resource checks.
type ServerStatsResponse struct {
	Sessions        int   `json:"sessions"`
	SessionsDirty   int   `json:"sessions_dirty"`
	RequestInflight int32 `json:"request_inflight"` // sum of per-session gauges

	InflightChecks int    `json:"inflight_checks"` // engine runs holding a slot
	QueuedChecks   int    `json:"queued_checks"`   // engine runs waiting for a slot
	MaxInflight    int    `json:"max_inflight"`
	QueueDepth     int    `json:"queue_depth"`
	Admitted       uint64 `json:"admitted"`
	Rejected429    uint64 `json:"rejected_429"` // queue full
	Rejected503    uint64 `json:"rejected_503"` // deadline expired while queued

	PanicsRecovered   uint64 `json:"panics_recovered"`
	SessionsPoisoned  uint64 `json:"sessions_poisoned"`
	EvictionsLRU      uint64 `json:"evictions_lru"`
	EvictionsIdle     uint64 `json:"evictions_idle"`
	SnapshotsSaved    uint64 `json:"snapshots_saved"`
	SnapshotsRestored uint64 `json:"snapshots_restored"`

	// DeltasServed counts ?since= report responses; DeltaResets the subset
	// that degraded to a reset (full list) because the base fingerprint
	// was unknown or evicted.
	DeltasServed uint64 `json:"deltas_served"`
	DeltaResets  uint64 `json:"delta_resets"`

	// BytesOut* are the response body bytes written since boot: bodies
	// carrying a full report (create and GET report), report deltas, and
	// every other body, errors included.
	BytesOutReport uint64 `json:"bytes_out_report"`
	BytesOutDelta  uint64 `json:"bytes_out_delta"`
	BytesOutOther  uint64 `json:"bytes_out_other"`

	Goroutines    int    `json:"goroutines"`
	HeapAllocByte uint64 `json:"heap_alloc_bytes"`
	UptimeNS      int64  `json:"uptime_ns"`

	// Tiers lists the shared tiers, by technology name.
	Tiers []TierStats `json:"tiers"`
}

// TierStats is one tier on GET /v1/stats: the technology and metric of
// the sessions that share it, the values it holds, the engines that
// reference it, and its counters since it was made — values engines took
// from it without building them, values built and published, and
// references dropped by eviction or close.
type TierStats struct {
	Tech     string `json:"tech"`
	Metric   string `json:"metric,omitempty"`
	Entries  int    `json:"entries"`
	Engines  int    `json:"engines"`
	Hits     uint64 `json:"hits"`
	Builds   uint64 `json:"builds"`
	Releases uint64 `json:"releases"`
}

// tierStats lists the tiers, by technology name, then metric.
func (s *Server) tierStats() []TierStats {
	s.mu.Lock()
	out := make([]TierStats, 0, len(s.tiers))
	tiers := make([]*netlist.Tier, 0, len(s.tiers))
	for k, t := range s.tiers {
		ts := TierStats{Tech: k.tc.Name}
		if k.metric == core.Orthogonal {
			ts.Metric = "ortho"
		}
		out, tiers = append(out, ts), append(tiers, t)
	}
	s.mu.Unlock()
	for i, t := range tiers {
		st := t.Stats()
		out[i].Entries, out[i].Engines = st.Entries, st.Views
		out[i].Hits, out[i].Builds, out[i].Releases = st.Hits, st.Builds, st.Releases
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.Tech < b.Tech || a.Tech == b.Tech && a.Metric < b.Metric
	})
	return out
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	st := s.stats
	s.mu.Unlock()

	resp := ServerStatsResponse{
		Sessions:          len(sessions),
		MaxInflight:       s.cfg.MaxInflight,
		QueueDepth:        s.cfg.QueueDepth,
		PanicsRecovered:   st.PanicsRecovered,
		SessionsPoisoned:  st.SessionsPoisoned,
		EvictionsLRU:      st.EvictionsLRU,
		EvictionsIdle:     st.EvictionsIdle,
		SnapshotsSaved:    st.SnapshotsSaved,
		SnapshotsRestored: st.SnapshotsRestored,
		DeltasServed:      st.DeltasServed,
		DeltaResets:       st.DeltaResets,
		BytesOutReport:    s.bytesOut[wireReport].Load(),
		BytesOutDelta:     s.bytesOut[wireDelta].Load(),
		BytesOutOther:     s.bytesOut[wireOther].Load(),
		Goroutines:        runtime.NumGoroutine(),
		UptimeNS:          time.Since(s.start).Nanoseconds(),
	}
	for _, sess := range sessions {
		resp.RequestInflight += sess.inflight.Load()
		// TryLock: the stats endpoint must never block behind a session
		// mid-flush. A busy session is by definition processing edits, so
		// counting it dirty is accurate enough for a gauge.
		if sess.mu.TryLock() {
			if sess.dirty {
				resp.SessionsDirty++
			}
			sess.mu.Unlock()
		} else {
			resp.SessionsDirty++
		}
	}
	inflight, queued, admitted, rejFull, rejWait := s.adm.gauges()
	resp.InflightChecks, resp.QueuedChecks = inflight, queued
	resp.Admitted, resp.Rejected429, resp.Rejected503 = admitted, rejFull, rejWait
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resp.HeapAllocByte = ms.HeapAlloc
	resp.Tiers = s.tierStats()
	s.reply(w, http.StatusOK, resp)
}

// maxPooledBuf caps the response buffers bufPool keeps: a buffer that
// grew past it for one huge report goes to the GC rather than pinning
// its size in the pool.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON is the daemon's one response path. It encodes v compactly
// into a pooled buffer and writes it once, with Content-Length, so a
// body of any size leaves in a single write, not in chunks. It returns
// the body's length.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			bufPool.Put(buf)
		}
	}()
	_ = json.NewEncoder(buf).Encode(v)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	n, _ := w.Write(buf.Bytes())
	return n
}

// Wire classes of the bytes_out counters: bodies that carry a full
// report (create and GET report), report deltas, and everything else
// (errors included).
const (
	wireReport = iota
	wireDelta
	wireOther
	wireClasses
)

// reply writes v through writeJSON and adds its body to the matching
// bytes_out counter.
func (s *Server) reply(w http.ResponseWriter, code int, v any) {
	class := wireOther
	switch v.(type) {
	case *Report, CreateResponse:
		class = wireReport
	case *ReportDelta:
		class = wireDelta
	}
	s.bytesOut[class].Add(uint64(writeJSON(w, code, v)))
}
