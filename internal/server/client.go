package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/layout"
)

// APIError is a non-2xx daemon response decoded into a typed error: the
// HTTP status, the machine-stable error class from the wire contract, and
// the Retry-After hint (zero when absent). Check it with errors.As.
type APIError struct {
	Status     int
	Class      string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Class != "" {
		return fmt.Sprintf("%s (%d %s)", e.Message, e.Status, e.Class)
	}
	return fmt.Sprintf("%s (%d)", e.Message, e.Status)
}

// Client drives a running dicheckd over its /v1 HTTP API. It is the
// library behind `dicheck -serve` and the load/integration harnesses;
// methods map one-to-one onto the daemon's endpoints and follow one
// shape: context first, Session* verbs for per-session calls, exported
// typed request/response structs.
//
// Every call is bounded by AttemptTimeout and retried up to MaxRetries
// times with exponential backoff and jitter when it is safe to: GETs and
// DELETEs retry on connection errors and on 429/503; POSTs retry only on
// 429/503 carrying a Retry-After header — the daemon sets it exactly on
// the rejections that happen before any state changes, so a retried POST
// can never double-apply.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8347". The /v1
	// prefix is the client's business, not the caller's.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient; per-call deadlines come
	// from AttemptTimeout, not the http.Client timeout.
	HTTPClient *http.Client
	// AttemptTimeout bounds each individual attempt (default 5m — cold
	// checks of large designs are slow on small machines).
	AttemptTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (default 3;
	// negative disables retries).
	MaxRetries int
	// RetryBase is the first backoff step; it doubles per retry and gets
	// ±50% jitter (default 100ms).
	RetryBase time.Duration
}

// NewClient creates a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: base}
}

// SessionCreate opens a session and returns its id plus the initial cold
// report.
func (c *Client) SessionCreate(ctx context.Context, req CreateRequest) (*CreateResponse, error) {
	var resp CreateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SessionList returns every live session.
func (c *Client) SessionList(ctx context.Context) ([]SessionInfo, error) {
	var resp []SessionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// SessionFind returns the id of the live session with the given name
// ("", false when absent; the lowest id wins if names collide).
func (c *Client) SessionFind(ctx context.Context, name string) (string, bool, error) {
	infos, err := c.SessionList(ctx)
	if err != nil {
		return "", false, err
	}
	for _, info := range infos {
		if info.Name == name {
			return info.ID, true, nil
		}
	}
	return "", false, nil
}

// SessionEdit applies one edit batch to a session.
func (c *Client) SessionEdit(ctx context.Context, id string, edits []layout.Edit) (*EditResponse, error) {
	var resp EditResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/edits", EditRequest{Edits: edits}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SessionReport fetches the session's current full report, forcing any
// pending edits through a recheck first.
func (c *Client) SessionReport(ctx context.Context, id string) (*Report, error) {
	var resp Report
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/report", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SessionReportSince fetches the session's report as a delta against the
// given base fingerprint. An unknown or evicted fingerprint (or "") does
// not fail: the daemon answers with a reset delta carrying the complete
// violation list, so the caller always converges — check Reset before
// patching.
func (c *Client) SessionReportSince(ctx context.Context, id, since string) (*ReportDelta, error) {
	var resp ReportDelta
	path := "/v1/sessions/" + id + "/report?since=" + url.QueryEscape(since)
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SessionReportApply refreshes a cached report over the delta path: only
// what changed since base's fingerprint crosses the wire, and the full
// current report is reconstructed locally (ApplyDelta — byte-identical
// to what SessionReport would have returned). A nil base, or a base the
// daemon no longer remembers, transparently degrades to a reset. The
// returned delta is what actually crossed the wire; its WireBytes and
// Reset fields are how callers observe the saving.
func (c *Client) SessionReportApply(ctx context.Context, id string, base *Report) (*Report, *ReportDelta, error) {
	since := ""
	if base != nil {
		since = base.Fingerprint
	}
	d, err := c.SessionReportSince(ctx, id, since)
	if err != nil {
		return nil, nil, err
	}
	rep, err := ApplyDelta(base, d)
	if err != nil {
		return nil, nil, err
	}
	return rep, d, nil
}

// SessionStats fetches the session's service and engine counters.
func (c *Client) SessionStats(ctx context.Context, id string) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SessionDelete removes a session.
func (c *Client) SessionDelete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// ServerStats fetches the daemon-wide gauges and counters.
func (c *Client) ServerStats(ctx context.Context) (*ServerStatsResponse, error) {
	var resp ServerStatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SnapshotAll asks the daemon to snapshot every session to its state
// directory immediately and reports what the sweep wrote.
func (c *Client) SnapshotAll(ctx context.Context) (*SnapshotSweepResponse, error) {
	var resp SnapshotSweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/snapshot", struct{}{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// do runs one JSON call with bounded retries. Non-2xx responses decode
// the daemon's error payload into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = buf
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	idempotent := method == http.MethodGet || method == http.MethodDelete

	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= retries || ctx.Err() != nil {
			return lastErr
		}
		wait, retryable := retryDelay(err, idempotent, base, attempt)
		if !retryable {
			return lastErr
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return lastErr
		}
	}
}

// retryDelay decides whether err warrants another attempt and how long to
// back off first.
func retryDelay(err error, idempotent bool, base time.Duration, attempt int) (time.Duration, bool) {
	backoff := base << attempt
	// ±50% jitter so synchronized clients don't stampede in lockstep.
	backoff = backoff/2 + time.Duration(rand.Int63n(int64(backoff)+1))
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		// 429/503 are issued before any state changes; the Retry-After
		// header is the daemon's explicit safe-to-retry signal, so even
		// POSTs retry on it.
		if (apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable) &&
			(idempotent || apiErr.RetryAfter > 0) {
			if apiErr.RetryAfter > backoff {
				backoff = apiErr.RetryAfter
			}
			return backoff, true
		}
		return 0, false
	}
	// Transport-level failure (connection refused/reset, EOF): the request
	// may or may not have reached the daemon, so only idempotent methods
	// retry automatically.
	return backoff, idempotent
}

// wireSized is implemented by response types that record their encoded
// payload size (Report, ReportDelta) — the measurement behind the load
// harness's payload-bytes histograms.
type wireSized interface{ setWireBytes(int64) }

// attempt runs a single HTTP round trip under the per-attempt timeout.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) error {
	timeout := c.AttemptTimeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Message: resp.Status}
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			apiErr.Message = fmt.Sprintf("%s %s: %s", method, path, eb.Error)
			apiErr.Class = eb.Class
		} else {
			apiErr.Message = fmt.Sprintf("%s %s: %s", method, path, resp.Status)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	// The report payloads read themselves in one pass (wire.go);
	// json.Unmarshal would scan their bytes twice more before handing
	// them over.
	if u, ok := out.(json.Unmarshaler); ok {
		err = u.UnmarshalJSON(data)
	} else {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return err
	}
	if ws, ok := out.(wireSized); ok {
		ws.setWireBytes(int64(len(data)))
	}
	return nil
}

// maxPresize bounds the buffer a Content-Length header may presize; a
// larger declared body is read by io.ReadAll as it arrives.
const maxPresize = 64 << 20

// readBody reads a response body into a buffer presized from its
// Content-Length (the daemon always sends one), so the read neither
// grows nor copies.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresize {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}
