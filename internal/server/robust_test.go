package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
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

// TestPanicPoisonsOnlyItsSession injects a panic into one session and
// asserts the blast radius: that session is quarantined (500/poisoned on
// every later request), while its sibling and the daemon itself keep
// serving.
func TestPanicPoisonsOnlyItsSession(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{Debounce: time.Hour, TestHooks: true})

	victim, err := c.SessionCreate(context.Background(), CreateRequest{Name: "victim", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := c.SessionCreate(context.Background(), CreateRequest{Name: "bystander", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}

	if err := c.SessionInject(context.Background(), victim.ID, InjectRequest{PanicCount: 1}); err != nil {
		t.Fatal(err)
	}
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
// daemon does not leak goroutines.
func TestDeadlineExpiry503(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{
		Debounce:     time.Hour, // reports are the only flush trigger
		CheckTimeout: 80 * time.Millisecond,
		TestHooks:    true,
	})
	noRetry(c)

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "slow", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEdit(context.Background(), created.ID, breakEdits()); err != nil {
		t.Fatal(err)
	}
	if err := c.SessionInject(context.Background(), created.ID, InjectRequest{SlowMS: 2000, SlowCount: 1}); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	_, err = c.SessionReport(context.Background(), created.ID)
	apiErr := apiStatus(t, err)
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Class != ClassTimeout {
		t.Fatalf("slow report: got %d/%s, want 503/%s", apiErr.Status, apiErr.Class, ClassTimeout)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("503 carried no Retry-After")
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

	// No goroutine may be parked on the expired flush. Allow the count to
	// settle — HTTP keep-alive and timer goroutines wind down lazily.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before expiry, %d after settle", before, runtime.NumGoroutine())
}

// TestAdmissionQueueFull429 fills the single check slot (zero queue) with
// an injected slow flush and asserts the next check-triggering request is
// rejected 429/overload immediately, with the rejection visible on the
// global stats.
func TestAdmissionQueueFull429(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{
		Debounce:    time.Hour,
		MaxInflight: 1,
		QueueDepth:  -1, // no waiting room: reject the moment the slot is taken
		TestHooks:   true,
	})
	noRetry(c)

	a, err := c.SessionCreate(context.Background(), CreateRequest{Name: "hog", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SessionCreate(context.Background(), CreateRequest{Name: "starved", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, err := c.SessionEdit(context.Background(), id, breakEdits()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SessionInject(context.Background(), a.ID, InjectRequest{SlowMS: 1500, SlowCount: 1}); err != nil {
		t.Fatal(err)
	}

	hogDone := make(chan error, 1)
	go func() {
		_, err := c.SessionReport(context.Background(), a.ID)
		hogDone <- err
	}()
	// Wait until the hog actually holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		gst, err := c.ServerStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gst.InflightChecks >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hog never took the check slot")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, err = c.SessionReport(context.Background(), b.ID)
	apiErr := apiStatus(t, err)
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Class != ClassOverload {
		t.Fatalf("saturated report: got %d/%s, want 429/%s", apiErr.Status, apiErr.Class, ClassOverload)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("429 carried no Retry-After")
	}
	if err := <-hogDone; err != nil {
		t.Fatalf("hog report failed: %v", err)
	}

	gst, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gst.Rejected429 == 0 {
		t.Fatalf("rejection not counted: %+v", gst)
	}
	// Once the hog drains, the starved session must get through.
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

// TestInjectRequiresTestHooks asserts the fault-injection endpoint is not
// routed unless explicitly enabled.
func TestInjectRequiresTestHooks(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	_, c := newTestServer(t, Config{Debounce: time.Hour}) // TestHooks off

	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "prod", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	err = c.SessionInject(context.Background(), created.ID, InjectRequest{PanicCount: 1})
	apiErr := apiStatus(t, err)
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("inject without -test-hooks: got %d, want 404", apiErr.Status)
	}
}
