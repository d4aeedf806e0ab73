package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cif"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// noRetry returns the client with automatic retries disabled, so tests
// observe the raw 429/503 the daemon actually sent.
func noRetry(c *Client) *Client {
	c.MaxRetries = -1
	return c
}

func apiStatus(t *testing.T, err error) *APIError {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("expected *APIError, got %T: %v", err, err)
	}
	return apiErr
}

// arm sets a live session's faults under its lock, as a request would.
func arm(srv *Server, id string, inj injectState) {
	sess, _ := srv.lookup(id)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.inject = inj
}

// TestPanicPoisonsOnlyItsSession injects a panic into one session and
// asserts the blast radius: that session is quarantined (500/poisoned on
// every later request), while its sibling and the daemon itself keep
// serving.
func TestPanicPoisonsOnlyItsSession(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{Debounce: time.Hour})

	victim, err := c.SessionCreate(context.Background(), CreateRequest{Name: "victim", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := c.SessionCreate(context.Background(), CreateRequest{Name: "bystander", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}

	arm(srv, victim.ID, injectState{panicN: 1})
	_, err = c.SessionEdit(context.Background(), victim.ID, breakEdits())
	apiErr := apiStatus(t, err)
	if apiErr.Status != http.StatusInternalServerError || apiErr.Class != ClassPanic {
		t.Fatalf("injected panic: got %d/%s, want 500/%s", apiErr.Status, apiErr.Class, ClassPanic)
	}

	// The victim is quarantined from here on.
	_, err = c.SessionReport(context.Background(), victim.ID)
	apiErr = apiStatus(t, err)
	if apiErr.Status != http.StatusInternalServerError || apiErr.Class != ClassPoisoned {
		t.Fatalf("poisoned report: got %d/%s, want 500/%s", apiErr.Status, apiErr.Class, ClassPoisoned)
	}
	st, err := c.SessionStats(context.Background(), victim.ID)
	if err != nil {
		t.Fatalf("stats must answer for poisoned sessions: %v", err)
	}
	if !st.Poisoned {
		t.Fatal("stats does not report the poisoning")
	}

	// The sibling is untouched and the daemon is healthy.
	if _, err := c.SessionEdit(context.Background(), bystander.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.SessionReport(context.Background(), bystander.ID); err != nil || rep.Clean {
		t.Fatalf("bystander report: err=%v clean=%v", err, rep != nil && rep.Clean)
	}
	resp, err := http.Get(c.BaseURL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	gst, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gst.PanicsRecovered == 0 || gst.SessionsPoisoned == 0 {
		t.Fatalf("global counters missed the panic: %+v", gst)
	}
	_ = srv
}

// TestDeadlineExpiry503 arms a slow check longer than the configured
// check deadline and asserts the report comes back 503/timeout with a
// Retry-After, the session recovers within one more report, and the
// expired request leaves no goroutine behind.
func TestDeadlineExpiry503(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c, clk := newFakeClockServer(t, Config{
		Debounce:     time.Hour, // reports are the only flush trigger
		CheckTimeout: 80 * time.Millisecond,
	})
	noRetry(c)

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "slow", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(context.Background(), created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	arm(srv, created.ID, injectState{slow: 2 * time.Second, slowN: 1})

	// Straight through the handler, so no connection goroutine muddies the
	// count: the slow check sleeps on the fake clock until its deadline.
	before, start := runtime.NumGoroutine(), clk.Now()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+created.ID+"/report", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), ClassTimeout) {
		t.Fatalf("slow report: got %d %s, want 503/%s", rec.Code, rec.Body, ClassTimeout)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 carried no Retry-After")
	}
	if waited := clk.Now().Sub(start); waited != 80*time.Millisecond {
		t.Fatalf("the slow check gave up after %v, want the 80ms deadline", waited)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before expiry, %d after", before, after)
	}

	// The injected slowness was consumed by the aborted run; the retry the
	// Retry-After invited must succeed and still see the edit.
	rep, err := c.SessionReport(context.Background(), created.ID)
	if err != nil {
		t.Fatalf("report after expiry did not recover: %v", err)
	}
	if rep.Clean {
		t.Fatal("recovered report lost the edit")
	}
}

// TestAdmissionQueueFull429 takes the single check slot (zero queue), as
// a long check on another session would, and asserts the next
// check-triggering request is rejected 429/overload immediately, with the
// rejection visible on the global stats.
func TestAdmissionQueueFull429(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{
		Debounce:    time.Hour,
		MaxInflight: 1,
		QueueDepth:  -1, // no waiting room: reject the moment the slot is taken
	})
	noRetry(c)

	b, err := c.SessionCreate(context.Background(), CreateRequest{Name: "starved", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(context.Background(), b.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	if !srv.adm.tryAcquire() {
		t.Fatal("check slot busy")
	}
	gst, err := c.ServerStats(context.Background())
	if err != nil || gst.InflightChecks != 1 {
		t.Fatalf("held slot not visible: %+v %v", gst, err)
	}

	_, err = c.SessionReport(context.Background(), b.ID)
	apiErr := apiStatus(t, err)
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Class != ClassOverload {
		t.Fatalf("saturated report: got %d/%s, want 429/%s", apiErr.Status, apiErr.Class, ClassOverload)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("429 carried no Retry-After")
	}
	srv.adm.release()

	gst, err = c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gst.Rejected429 == 0 {
		t.Fatalf("rejection not counted: %+v", gst)
	}
	// Once the slot is free, the starved session must get through.
	if rep, err := c.SessionReport(context.Background(), b.ID); err != nil || rep.Clean {
		t.Fatalf("post-saturation report: err=%v", err)
	}
}

// TestBodyTooLarge413 asserts the body cap answers an oversize POST with
// a structured 413 instead of an unbounded read.
func TestBodyTooLarge413(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: time.Hour, MaxBodyBytes: 2048})

	big := CreateRequest{Name: "big", CIF: text + strings.Repeat(" ", 4096), Tech: "cmos"}
	_, err := c.SessionCreate(context.Background(), big)
	apiErr := apiStatus(t, err)
	if apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Class != ClassTooLarge {
		t.Fatalf("oversize create: got %d/%s, want 413/%s", apiErr.Status, apiErr.Class, ClassTooLarge)
	}
}

// TestEvictedMidRequest410 closes a session while a caller still holds a
// handle to it and asserts the contract: a clean 410/gone, not a torn
// state or a 500.
func TestEvictedMidRequest410(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{Debounce: time.Hour})

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "doomed", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := srv.lookup(created.ID)
	if !ok {
		t.Fatal("session not registered")
	}
	// Simulate the eviction racing a request that already resolved the
	// session pointer: the session closes underneath it.
	sess.close()
	if _, serr := sess.report(context.Background()); serr == nil || serr.code != http.StatusGone || serr.class != ClassGone {
		t.Fatalf("report on closed session: got %+v, want 410/%s", serr, ClassGone)
	}
	if _, _, serr := sess.applyEdits(breakEdits()); serr == nil || serr.code != http.StatusGone {
		t.Fatalf("edit on closed session: got %+v, want 410", serr)
	}
}

// TestInjectNotRouted asserts the daemon has no fault-injection endpoint:
// faults are armed only by the package's tests (arm).
func TestInjectNotRouted(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: time.Hour})

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "prod", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+"/v1/sessions/"+created.ID+"/inject", "application/json", strings.NewReader(`{"panic_count":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST .../inject: got %d, want 404", resp.StatusCode)
	}
}

// TestDoublingCIF413 posts a kilobyte of CIF that flattens to 2^31
// instances — once enough to run the daemon out of memory and take every
// session down with it — and a chain of symbols 4 096 levels deep, four
// times the depth cap. Each must be refused quickly as too large, and the
// daemon must keep serving.
func TestDoublingCIF413(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for name, cif := range map[string]string{"doubling": workload.DoublingCIF(32), "chain": workload.ChainCIF(1 << 12)} {
		start := time.Now()
		_, err := c.SessionCreate(context.Background(), CreateRequest{Name: name, CIF: cif, Tech: "nmos"})
		apiErr := apiStatus(t, err)
		if apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Class != ClassTooLarge {
			t.Fatalf("%s CIF: got %d/%s, want 413/%s", name, apiErr.Status, apiErr.Class, ClassTooLarge)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("%s refusal took %v", name, el)
		}
	}
	resp, err := http.Get(c.BaseURL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusal: %v %v", resp, err)
	}
	resp.Body.Close()
	text, _ := cmosCIF(t, 1, 2)
	if _, err := c.SessionCreate(context.Background(), CreateRequest{Name: "after", CIF: text, Tech: "cmos"}); err != nil {
		t.Fatalf("create after the refusal: %v", err)
	}
}

// TestCoordinateBoundProbes replays, on a 2×2 nMOS chip, the three edits
// that drew false verdicts before coordinates were bounded: a metal box at
// ±2^62 (its area wrapped to an island below the minimum), a box at the
// int64 limits (a width violation at [0,0 -1,-1]) and a move by MaxInt64
// (the VDD trunk wrapped across the plane, opening VDD). Each batch
// answers 400 with its valid first edit applied, the report afterwards
// is the chip's own, and a CIF holding such a box is refused at create as
// too large.
func TestCoordinateBoundProbes(t *testing.T) {
	tc := tech.NMOS()
	text, err := cif.Write(workload.NewChipUnique(tc, "chip", 2, 2).Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Debounce: time.Hour})
	ctx := context.Background()
	created, err := c.SessionCreate(ctx, CreateRequest{Name: "probe", CIF: text, Tech: "nmos"})
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]layout.Edit{
		"box at ±2^62":          {Op: layout.OpAddBox, Symbol: "chip", Layer: tech.NMOSMetal, Box: []int64{-1 << 62, -1 << 62, 1 << 62, 1 << 62}},
		"box at the int64 ends": {Op: layout.OpAddBox, Symbol: "chip", Layer: tech.NMOSMetal, Box: []int64{math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64}},
		"move by MaxInt64":      {Op: layout.OpMoveElement, Symbol: "chip", Index: 0, DX: math.MaxInt64},
	}
	nudge := layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: 1, DX: 10}
	for name, probe := range probes {
		body, _ := json.Marshal(EditRequest{Edits: []layout.Edit{nudge, probe}})
		resp, err := http.Post(c.BaseURL+"/v1/sessions/"+created.ID+"/edits", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er EditResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || er.Applied != 1 || !strings.Contains(er.Error, layout.ErrTooLarge.Error()) {
			t.Fatalf("%s: got %d %+v (%v), want 400 with 1 applied and a too-large error", name, resp.StatusCode, er, err)
		}
		undo := nudge
		undo.DX = -nudge.DX
		if _, err := c.SessionEdit(ctx, created.ID, []layout.Edit{undo}); err != nil {
			t.Fatal(err)
		}
		rep, err := c.SessionReport(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fingerprint != created.Report.Fingerprint {
			t.Fatalf("%s: report after the refusal differs from the chip's: %+v", name, rep.Violations)
		}
	}
	huge := strings.Replace(text, "DF;", "L NM; B 2147483650 10 0 0; DF;", 1)
	_, err = c.SessionCreate(ctx, CreateRequest{Name: "huge", CIF: huge, Tech: "nmos"})
	if apiErr := apiStatus(t, err); apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Class != ClassTooLarge {
		t.Fatalf("out-of-bound CIF: got %d/%s, want 413/%s", apiErr.Status, apiErr.Class, ClassTooLarge)
	}
}
