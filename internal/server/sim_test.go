package server

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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

// The deterministic simulation of dicheckd: seeded schedules of requests,
// clock advances, injected faults, engine-slot contention and crashes,
// driven through the real Server handler on a fake clock, with every
// response checked against the sequential model in model_test.go. A
// failing schedule prints its seed; -sim.seed replays exactly that
// schedule, with its event log under -v.
var (
	simSeeds  = flag.Int("sim.seeds", 1000, "number of seeded schedules TestSimulation runs")
	simFirst  = flag.Int64("sim.first", 1, "seed of the first schedule")
	simSeed   = flag.Int64("sim.seed", 0, "replay only this schedule (0: run -sim.seeds schedules from -sim.first)")
	simEvents = flag.Int("sim.events", 32, "events per schedule")
)

// fakeClock is the simulation's clock. Time moves only when the harness
// advances it or a request sleeps on it. A deadline fires inside the
// advance that reaches it; an AfterFunc callback that comes due is queued
// and runs on the harness goroutine at the next runReady, after the
// request in flight (if any) has answered.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    int
	timers timerHeap
	ready  []*fakeTimer
}

type fakeTimer struct {
	c      *fakeClock
	due    time.Time
	seq    int
	f      func() // AfterFunc callback: queued for runReady
	cancel func() // deadline: fired inside the advance
	index  int    // in c.timers; -1 once fired or stopped
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&t.c.timers, t.index)
	return true
}

type timerHeap []*fakeTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].due.Before(h[j].due) || h[i].due.Equal(h[j].due) && h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *timerHeap) Push(x any)   { t := x.(*fakeTimer); t.index = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h, t.index = old[:len(old)-1], -1
	return t
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) add(d time.Duration, f, cancel func()) *fakeTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	t := &fakeTimer{c: c, due: c.now.Add(d), seq: c.seq, f: f, cancel: cancel}
	heap.Push(&c.timers, t)
	return t
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) timer { return c.add(d, f, nil) }

func (c *fakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(ctx)
	t := c.add(d, nil, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() { t.Stop(); cancel(context.Canceled) }
}

// Sleep advances the clock itself: the sleeper is the only thing running.
func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) { c.advance(d, ctx.Done()) }

// advance moves the clock d forward, firing deadlines and queueing due
// callbacks in due order; it stops early once done is closed.
func (c *fakeClock) advance(d time.Duration, done <-chan struct{}) {
	c.mu.Lock()
	target := c.now.Add(d)
	for len(c.timers) > 0 && !c.timers[0].due.After(target) {
		t := heap.Pop(&c.timers).(*fakeTimer)
		c.now = t.due
		if t.f != nil {
			c.ready = append(c.ready, t)
			continue
		}
		c.mu.Unlock()
		t.cancel()
		c.mu.Lock()
		select {
		case <-done:
			c.mu.Unlock()
			return
		default:
		}
	}
	c.now = target
	c.mu.Unlock()
}

// runReady runs the queued callbacks, and any they make due, in order.
func (c *fakeClock) runReady() {
	for {
		c.advance(0, nil)
		c.mu.Lock()
		if len(c.ready) == 0 {
			c.mu.Unlock()
			return
		}
		t := c.ready[0]
		c.ready = c.ready[1:]
		c.mu.Unlock()
		t.f()
	}
}

// oracle is the offline side of the parity contract: the fingerprint and
// wire violations of a cold check of a design state, memoised by the
// state's CIF text across every schedule.
type oracle struct {
	mu    sync.Mutex
	byKey map[string]oracleEntry
	byFP  map[string][]Violation
}

type oracleEntry struct {
	fp   string
	viol []Violation
}

func (o *oracle) check(key string) oracleEntry {
	o.mu.Lock()
	e, ok := o.byKey[key]
	o.mu.Unlock()
	if ok {
		return e
	}
	tc := tech.CMOS()
	d, err := cif.Parse(key, tc, "")
	if err != nil {
		panic(err)
	}
	rep, err := core.Check(d, tc, core.Options{})
	if err != nil {
		panic(err)
	}
	e = oracleEntry{fp: core.FingerprintDigest(rep), viol: violationsWire(rep.Violations)}
	o.mu.Lock()
	o.byKey[key], o.byFP[e.fp] = e, e.viol
	o.mu.Unlock()
	return e
}

func (o *oracle) violations(fp string) []Violation {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.byFP[fp]
}

// simCIF is the sessions' design: a one-row, two-cell CMOS chip with four
// metal probe boxes west of it, for in-place moves to start from.
func simCIF(t *testing.T) (string, *tech.Technology) {
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "chip", 1, 2)
	for i := int64(0); i < 4; i++ {
		x, y := -20000-i%2*3000, i/2*1500
		if err := layout.ApplyEdit(chip.Design, tc, layout.Edit{Op: layout.OpAddBox, Symbol: "chip",
			Layer: tech.CMOSMetal, Box: []int64{x, y, x + 1000, y + 1000}}); err != nil {
			t.Fatal(err)
		}
	}
	text, err := cif.Write(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	return text, tc
}

// simDesign is the session CIF and its design state as the daemon holds
// it: parsed under the sessions' name, written back.
type simDesign struct{ text, key string }

// TestSimulation runs the seeded schedules, one worker per CPU.
func TestSimulation(t *testing.T) {
	text, tc := simCIF(t)
	d, err := cif.Parse(text, tc, "sim")
	if err != nil {
		t.Fatal(err)
	}
	key, err := cif.Write(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	design := simDesign{text, key}
	o := &oracle{byKey: map[string]oracleEntry{}, byFP: map[string][]Violation{}}
	seeds := make(chan int64)
	go func() {
		defer close(seeds)
		if *simSeed != 0 {
			seeds <- *simSeed
			return
		}
		for i := 0; i < *simSeeds; i++ {
			seeds <- *simFirst + int64(i)
		}
	}()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		failed    []int64
		schedules int
		events    int
	)
	dir := t.TempDir()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				h := newHarness(seed, design, tc, o, filepath.Join(dir, fmt.Sprint(seed)))
				err := h.run(*simEvents)
				mu.Lock()
				schedules++
				events += h.events
				if err != nil {
					failed = append(failed, seed)
					t.Errorf("seed %d: %v\nreplay: go test ./internal/server -run 'TestSimulation$' -sim.seed=%d -v", seed, err, seed)
				}
				mu.Unlock()
				if err != nil || *simSeed != 0 {
					t.Logf("seed %d event log:\n%s", seed, strings.Join(h.log, "\n"))
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	t.Logf("%d schedules, %d events, %d design states checked offline, failing seeds %v",
		schedules, events, len(o.byKey), failed)
}

// harness is one schedule: a daemon on a fake clock, its model, and the
// seeded choices between them.
type harness struct {
	rng    *rand.Rand
	clk    *fakeClock
	srv    *Server
	m      *model
	o      *oracle
	design simDesign
	cfg    Config            // as given to the daemon; the model's has its defaults
	seen   []string          // every id the daemon has answered with
	lastFP map[string]string // the newest fingerprint served per session
	held   bool              // the harness holds the engine slot
	after  time.Duration     // clock time the last request spent, for the model
	log    []string
	events int
}

func newHarness(seed int64, design simDesign, tc *tech.Technology, o *oracle, dir string) *harness {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		MaxSessions:   3,
		IdleTTL:       2 * time.Second,
		Debounce:      []time.Duration{25 * time.Millisecond, 250 * time.Millisecond, -1}[rng.Intn(3)],
		CheckTimeout:  100 * time.Millisecond,
		MaxInflight:   1,
		QueueDepth:    []int{-1, 1, 1}[rng.Intn(3)],
		ReportHistory: 1 + rng.Intn(5),
		StateDir:      dir,
		SnapshotEvery: 1200 * time.Millisecond,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	h := &harness{rng: rng, o: o, design: design, cfg: cfg, lastFP: map[string]string{}}
	h.m = &model{cfg: cfg.withDefaults(), tc: tc, fp: func(k string) string { return o.check(k).fp },
		now: time.Unix(1e9, 0), disk: map[string]mSession{}}
	return h
}

// boot starts a daemon on the state directory, as after a crash.
func (h *harness) boot() {
	h.clk = &fakeClock{now: h.m.now}
	h.srv = newServer(h.cfg, h.clk)
	h.held = false
	n, errs := h.srv.RestoreFromDisk(context.Background())
	h.m.boot()
	if n != len(h.m.live) || len(errs) != len(h.m.disk)-len(h.m.live) {
		h.failf("restored %d sessions (errors %v), model restores %d of %d", n, errs, len(h.m.live), len(h.m.disk))
	}
}

type simFailure struct{ msg string }

func (h *harness) failf(format string, args ...any) {
	panic(simFailure{fmt.Sprintf(format, args...)})
}

// run plays the schedule; the first divergence ends it.
func (h *harness) run(n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(simFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("event %d (%s): %s", h.events, h.log[len(h.log)-1], f.msg)
		}
		if h.srv != nil {
			h.srv.Close()
		}
	}()
	h.logf("boot")
	h.boot()
	for h.events = 1; h.events <= n; h.events++ {
		h.step()
		// Time a request spent on the clock (a slow check, a deadline
		// reached while queued) fires the model's timers after the
		// request's own effects, as the daemon runs the callbacks.
		h.m.advance(h.after)
		h.after = 0
		h.clk.runReady()
		h.check(h.m.now.Equal(h.clk.Now()), "clock %v, model %v", h.clk.Now(), h.m.now)
	}
	h.events = n
	return nil
}

func (h *harness) check(ok bool, format string, args ...any) {
	if !ok {
		h.failf(format, args...)
	}
}

func (h *harness) logf(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf("%3d t=%-6v ", h.events, h.m.now.Sub(time.Unix(1e9, 0)))+fmt.Sprintf(format, args...))
}

// pick chooses a live session most of the time, else one that is gone or
// never was.
func (h *harness) pick() string {
	ids := make([]string, 0, len(h.m.live))
	for id := range h.m.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > 0 && h.rng.Intn(8) > 0 {
		return ids[h.rng.Intn(len(ids))]
	}
	if len(h.seen) > 0 && h.rng.Intn(2) == 0 {
		return h.seen[h.rng.Intn(len(h.seen))]
	}
	return "s99"
}

// step plays one seeded event.
func (h *harness) step() {
	switch r := h.rng.Intn(100); {
	case r < 8:
		h.create()
	case r < 9:
		h.logf("create from a doubling CIF")
		code, class, _ := h.do("POST", "/v1/sessions", CreateRequest{Name: "huge", CIF: workload.DoublingCIF(32), Tech: "nmos"})
		h.check(code == 413 && class == ClassTooLarge, "got %d %s, want 413 too_large", code, class)
	case r < 10:
		h.logf("create from malformed CIF")
		code, _, _ := h.do("POST", "/v1/sessions", CreateRequest{CIF: "DS 1; L ZZ; DF; E", Tech: "cmos"})
		h.check(code == 400, "got %d, want 400", code)
	case r < 30:
		id := h.pick()
		h.edit(id, h.edits(id, false), "")
	case r < 36:
		id := h.pick()
		h.edit(id, h.edits(id, true), "")
	case r < 47:
		h.report(h.pick(), nil, "")
	case r < 59:
		id := h.pick()
		since := h.since(id)
		h.report(id, &since, "")
	case r < 62:
		h.stats(h.pick())
	case r < 65:
		h.list()
	case r < 68:
		h.remove(h.pick())
	case r < 80:
		d := time.Duration(1+h.rng.Intn(40)) * time.Millisecond
		switch k := h.rng.Intn(10); {
		case k == 9:
			d = time.Duration(500+h.rng.Intn(5500)) * time.Millisecond
		case k >= 6:
			d = time.Duration(40+h.rng.Intn(360)) * time.Millisecond
		}
		h.logf("advance %v", d)
		h.clk.advance(d, nil)
		h.m.advance(d)
	case r < 81:
		h.injectPanic(h.pick())
	case r < 90:
		h.injectSlow()
	case r < 92:
		h.hold(!h.held)
	case r < 94:
		h.logf("POST /v1/snapshot")
		code, _, body := h.do("POST", "/v1/snapshot", nil)
		var resp SnapshotSweepResponse
		_ = json.Unmarshal(body, &resp)
		poisoned := 0
		for _, s := range h.m.live {
			if s.poisoned {
				poisoned++
			}
		}
		want := h.m.snapshotAll()
		h.check(code == 200 && resp.Saved == want && len(resp.Errors) == poisoned,
			"got %d %+v, want 200 with %d saved and %d poisoned sessions refused", code, resp, want, poisoned)
	case r < 98:
		h.logf("crash (kill -9) and restore")
		h.boot()
	default:
		h.logf("graceful restart")
		h.srv.Close()
		h.m.snapshotAll()
		h.boot()
	}
}

// hold takes or releases the engine slot, as a long check elsewhere would.
func (h *harness) hold(take bool) {
	h.logf("engine slot held=%v", take)
	if take {
		h.check(h.srv.adm.tryAcquire(), "engine slot busy")
	} else {
		h.srv.adm.release()
	}
	h.held, h.m.hogged = take, take
}

// do sends one request through the handler. While the harness holds the
// engine slot the request runs on its own goroutine: if it parks in the
// admission queue, the harness resolves it — by letting its deadline
// expire, or by releasing the slot — and only then collects the answer.
func (h *harness) do(method, path string, body any) (code int, class string, out []byte) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			panic(err)
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(payload))
	expired := false
	if !h.held {
		h.srv.ServeHTTP(rec, req)
	} else {
		done := make(chan struct{})
		go func() { defer close(done); h.srv.ServeHTTP(rec, req) }()
		if h.parked(done) {
			if expired = h.rng.Intn(2) == 0; expired {
				h.logf("  queued: deadline expires")
				h.clk.advance(h.m.cfg.CheckTimeout, nil)
				h.after = h.m.cfg.CheckTimeout
			} else {
				h.logf("  queued: slot released")
				h.hold(false)
			}
		}
		<-done
	}
	code, class, out = unpack(rec)
	h.log[len(h.log)-1] += " -> " + strings.TrimSpace(fmt.Sprintf("%d %s", code, class))
	if expired {
		h.check(code == 503 && class == ClassTimeout, "queued request: got %d %s, want 503 timeout", code, class)
		class = queuedTimeout
	}
	return code, class, out
}

// queuedTimeout is the class do reports for a request whose deadline it
// let expire in the admission queue, after checking the 503.
const queuedTimeout = "(queued timeout)"

// parked waits until the request in flight has answered (false) or is
// waiting in the admission queue (true).
func (h *harness) parked(done <-chan struct{}) bool {
	for {
		select {
		case <-done:
			return false
		default:
		}
		if _, queued, _, _, _ := h.srv.adm.gauges(); queued > 0 {
			return true
		}
		runtime.Gosched()
	}
}

// unpack reads a response, holding every error to the wire contract: no
// 5xx but 503 timeout and the injected panic/poisoned classes, and a
// Retry-After on each 429 and 503.
func unpack(rec *httptest.ResponseRecorder) (int, string, []byte) {
	var eb errorBody
	if rec.Code >= 400 {
		_ = json.Unmarshal(rec.Body.Bytes(), &eb)
		switch {
		case rec.Code >= 500 && !(rec.Code == 503 && eb.Class == ClassTimeout) && eb.Class != ClassPanic && eb.Class != ClassPoisoned:
			panic(simFailure{fmt.Sprintf("5xx outside the contract: %d %s", rec.Code, rec.Body.String())})
		case (rec.Code == 429 || rec.Code == 503) && rec.Header().Get("Retry-After") == "":
			panic(simFailure{fmt.Sprintf("%d without Retry-After", rec.Code)})
		}
	}
	return rec.Code, eb.Class, rec.Body.Bytes()
}

// slotBlocked checks the admission answer of a request that needed the
// engine slot while the harness held it: 429 with no queue to wait in,
// else it queued and was either timed out (checked by do) or let through
// (false: it ran).
func (h *harness) slotBlocked(code int, class string) bool {
	if class == queuedTimeout {
		return true
	}
	if h.m.cfg.QueueDepth > 0 {
		return false
	}
	h.check(code == 429 && class == ClassOverload, "got %d %s with the slot held and no queue, want 429 overload", code, class)
	return true
}

func (h *harness) create() {
	h.logf("create")
	hogged := h.m.hogged
	code, class, body := h.do("POST", "/v1/sessions", CreateRequest{Name: "sim", CIF: h.design.text, Tech: "cmos"})
	if hogged && h.slotBlocked(code, class) {
		return
	}
	id := h.m.create(h.design.key)
	var resp CreateResponse
	h.check(code == 201 && json.Unmarshal(body, &resp) == nil && resp.ID == id, "got %d %s, want 201 %s", code, body, id)
	h.seen = append(h.seen, id)
	h.checkReport(id, resp.Report)
}

func (h *harness) checkReport(id string, rep *Report) {
	want := h.o.check(h.m.live[id].key)
	h.check(rep.Fingerprint == want.fp, "fingerprint %s, offline replay %s", rep.Fingerprint, want.fp)
	h.check(sameViolations(rep.Violations, want.viol), "violations differ from the offline replay")
	h.lastFP[id] = rep.Fingerprint
}

func sameViolations(a, b []Violation) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// gone checks the answer to a request on a session the model has not got.
func (h *harness) gone(id string, code int) bool {
	if _, ok := h.m.live[id]; ok {
		return false
	}
	h.check(code == 404, "session %s is not live, got %d, want 404", id, code)
	return true
}

// poisoned checks the answer to a request on a quarantined session; a
// request armed with a panic poisons the session and answers 500 panic.
func (h *harness) poisoned(s *mSession, fault string, code int, class string) bool {
	switch {
	case s.poisoned:
		h.check(code == 500 && class == ClassPoisoned, "poisoned session: got %d %s", code, class)
	case fault == "panic":
		h.check(code == 500 && class == ClassPanic, "injected panic: got %d %s", code, class)
		s.poisoned = true
	default:
		return false
	}
	return true
}

func (h *harness) edit(id string, edits []layout.Edit, fault string) {
	h.logf("edit %s %s", id, describe(edits))
	code, class, body := h.do("POST", "/v1/sessions/"+id+"/edits", EditRequest{Edits: edits})
	s, ok := h.touch(id)
	if h.gone(id, code) || h.poisoned(s, fault, code, class) {
		return
	}
	var resp EditResponse
	_ = json.Unmarshal(body, &resp)
	n, err := h.m.edit(s, edits)
	want := 200
	if err != nil {
		want = 400
	}
	h.check(ok && code == want && resp.Applied == n && resp.Generation == s.batches,
		"got %d %+v, want %d applied %d generation %d", code, resp, want, n, s.batches)
}

// report fetches the full report, or with since the ?since= delta, and
// holds it to the offline replay; fault is an armed panic or slow check.
func (h *harness) report(id string, since *string, fault string) {
	path := "/v1/sessions/" + id + "/report"
	if since != nil {
		path += "?since=" + *since
	}
	h.logf("GET %s", path)
	hogged := h.m.hogged
	code, class, body := h.do("GET", path, nil)
	s, _ := h.touch(id)
	if h.gone(id, code) || h.poisoned(s, fault, code, class) {
		return
	}
	if s.dirty {
		if hogged && h.slotBlocked(code, class) {
			return
		}
		if slow, _ := time.ParseDuration(strings.TrimPrefix(fault, "slow ")); slow > 0 {
			if slow >= h.m.cfg.CheckTimeout {
				h.check(code == 503 && class == ClassTimeout, "check past its deadline: got %d %s, want 503 timeout", code, class)
				h.after = h.m.cfg.CheckTimeout
				return
			}
			h.after = slow
		}
		h.m.flush(s)
	}
	h.check(code == 200, "got %d %s, want 200", code, body)
	if since == nil {
		var rep Report
		h.check(json.Unmarshal(body, &rep) == nil, "undecodable report")
		h.checkReport(id, &rep)
		return
	}
	var delta ReportDelta
	h.check(json.Unmarshal(body, &delta) == nil, "undecodable delta")
	h.check(delta.Reset == !s.inRing(*since), "reset=%v for base %q, history %v", delta.Reset, *since, s.ring)
	base := &Report{Envelope: Envelope{Fingerprint: delta.Base}, Violations: h.o.violations(delta.Base)}
	h.check(delta.Reset || delta.Base == *since, "delta base %s, asked %s", delta.Base, *since)
	rep, err := ApplyDelta(base, &delta)
	h.check(err == nil, "delta does not apply to its base: %v", err)
	h.checkReport(id, rep)
}

// touch is the LRU stamp every lookup of a live session takes.
func (h *harness) touch(id string) (*mSession, bool) {
	s, ok := h.m.live[id]
	if ok {
		s.used = h.m.now
	}
	return s, ok
}

// inRing reports whether a delta against fp is owed: fp is a state still
// in the session's history (the empty base never is).
func (s *mSession) inRing(fp string) bool {
	for _, f := range s.ring {
		if f == fp && fp != "" {
			return true
		}
	}
	return false
}

// since picks a delta base: from the model's history, the newest state
// served, the cold-client empty base, or one never served.
func (h *harness) since(id string) string {
	switch s := h.m.live[id]; {
	case s != nil && h.rng.Intn(3) == 0:
		return s.ring[h.rng.Intn(len(s.ring))]
	case h.rng.Intn(4) == 0:
		return ""
	case h.rng.Intn(4) == 0:
		return "feedface"
	}
	return h.lastFP[id]
}

func (h *harness) stats(id string) {
	h.logf("GET stats %s", id)
	code, _, body := h.do("GET", "/v1/sessions/"+id+"/stats", nil)
	s, _ := h.touch(id)
	if h.gone(id, code) {
		return
	}
	var st StatsResponse
	h.check(code == 200 && json.Unmarshal(body, &st) == nil, "got %d", code)
	h.check(st.Dirty == s.dirty && st.Poisoned == s.poisoned && st.Session.EditBatches == s.batches,
		"stats dirty=%v poisoned=%v batches=%d, model %v %v %d", st.Dirty, st.Poisoned, st.Session.EditBatches, s.dirty, s.poisoned, s.batches)
}

func (h *harness) list() {
	h.logf("GET /v1/sessions")
	_, _, body := h.do("GET", "/v1/sessions", nil)
	var infos []SessionInfo
	_ = json.Unmarshal(body, &infos)
	var got, want []string
	for _, in := range infos {
		got = append(got, in.ID)
	}
	for id := range h.m.live {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return lessID(want[i], want[j]) })
	h.check(fmt.Sprint(got) == fmt.Sprint(want), "live sessions %v, model %v", got, want)
}

func (h *harness) remove(id string) {
	h.logf("DELETE %s", id)
	code, _, _ := h.do("DELETE", "/v1/sessions/"+id, nil)
	if h.gone(id, code) {
		return
	}
	h.check(code == 200, "got %d, want 200", code)
	delete(h.m.live, id)
	delete(h.m.disk, id)
}

// inject arms a fault on a live session under its lock, reaching it
// through lookup as a request would; a poisoned session answers 500.
func (h *harness) inject(id string, arm injectState) bool {
	code, class := 404, ClassNotFound
	if sess, ok := h.srv.lookup(id); ok {
		sess.mu.Lock()
		if code, class = 200, ""; sess.poison != nil {
			code, class = 500, ClassPoisoned
		}
		sess.inject = arm // a poisoned session never reaches a fault point
		sess.mu.Unlock()
	}
	h.log[len(h.log)-1] += " -> " + strings.TrimSpace(fmt.Sprintf("%d %s", code, class))
	s, _ := h.touch(id)
	return !h.gone(id, code) && !h.poisoned(s, "", code, class)
}

// injectPanic arms a panic and sends the request that trips it.
func (h *harness) injectPanic(id string) {
	h.logf("inject panic into %s", id)
	if !h.inject(id, injectState{panicN: 1}) {
		return
	}
	switch h.rng.Intn(3) {
	case 0:
		h.edit(id, h.edits(id, false), "panic")
	case 1:
		h.report(id, nil, "panic")
	default:
		since := h.since(id)
		h.report(id, &since, "panic")
	}
}

// injectSlow arms a slow check on a session with edits pending and reads
// its report: the flush outlives its deadline, or finishes late.
func (h *harness) injectSlow() {
	var id string
	for cand, s := range h.m.live {
		if s.dirty && !s.poisoned && (id == "" || lessID(cand, id)) {
			id = cand
		}
	}
	if id == "" || h.m.hogged {
		id = h.pick()
		h.edit(id, h.edits(id, false), "")
		return
	}
	slow := time.Duration([]int{40, 100, 150}[h.rng.Intn(3)]) * time.Millisecond
	h.logf("inject slow %v into %s", slow, id)
	if !h.inject(id, injectState{slow: slow, slowN: 1}) {
		return
	}
	since := h.lastFP[id]
	h.report(id, &since, "slow "+slow.String())
}

// edits draws an edit batch for a session's chip: probe boxes added,
// moved and deleted west of the array, the accidental-transistor wire and
// a too-narrow metal wire. Once there are probes, most batches are one
// in-place move of one, the edit the engine rechecks by patching a window.
// A bad batch ends in an edit the daemon must refuse after applying the
// prefix.
func (h *harness) edits(id string, bad bool) []layout.Edit {
	elems := 0
	if s := h.m.live[id]; s != nil {
		elems = len(s.d.Top.Elements)
	}
	if !bad && elems >= 2 && h.rng.Intn(3) > 0 {
		return []layout.Edit{{Op: layout.OpMoveElement, Symbol: "chip", Index: h.rng.Intn(elems),
			DX: int64(h.rng.Intn(3)-1) * 100, DY: int64(h.rng.Intn(3)-1) * 250}}
	}
	var out []layout.Edit
	for i := h.rng.Intn(3); i >= 0; i-- {
		var e layout.Edit
		switch h.rng.Intn(7) {
		case 0, 1:
			x, y := -20000-int64(h.rng.Intn(6))*3000, int64(h.rng.Intn(8))*1500
			e = layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal, Box: []int64{x, y, x + 1000, y + 1000}}
		case 2:
			e = layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: int64(h.rng.Intn(5)-2) * 250}
		case 3:
			e = layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: h.rng.Intn(max(1, elems)), DX: int64(h.rng.Intn(2)*2-1) * 100}
		case 4:
			e = layout.Edit{Op: layout.OpDeleteElement, Symbol: "chip", Index: -1}
		case 5:
			e = breakEdits()[0]
		default:
			e = layout.Edit{Op: layout.OpAddWire, Symbol: "chip", Layer: tech.CMOSMetal, Width: 200, Path: []int64{0, -5000, 1000, -5000}}
		}
		out = append(out, e)
	}
	if bad {
		out = append(out, []layout.Edit{
			{Op: "explode", Symbol: "chip"},
			{Op: layout.OpMoveElement, Symbol: "chip", Index: 999},
			{Op: layout.OpAddBox, Symbol: "chip", Layer: "unobtainium", Box: []int64{0, 0, 2, 2}},
			{Op: layout.OpAddCall, Symbol: "chip", Target: "chip"},
		}[h.rng.Intn(4)])
	}
	return out
}

func describe(edits []layout.Edit) string {
	var parts []string
	for _, e := range edits {
		parts = append(parts, fmt.Sprintf("%s[%d]", e.Op, e.Index))
	}
	return strings.Join(parts, ",")
}
