package server

import (
	"fmt"
	"net/http"
)

// Error classes of the wire error contract. Every non-2xx response body
// is {"error": "...", "class": "..."}; the class is machine-stable (the
// message is not) and is what clients key on.
//
//	bad_request  400  malformed JSON, unknown tech/metric, invalid edit
//	not_found    404  no such session (never existed, or fully evicted)
//	gone         410  session evicted or deleted while the request raced it
//	too_large    413  request body over the -max-body cap
//	failed       422  the check itself failed (structural design error)
//	overload     429  admission queue full — back off and retry
//	poisoned     500  session quarantined after a recovered panic
//	panic        500  this request's handler panicked (and was recovered)
//	timeout      503  deadline expired (in queue or mid-check) — retry later
const (
	ClassBadRequest = "bad_request"
	ClassNotFound   = "not_found"
	ClassGone       = "gone"
	ClassTooLarge   = "too_large"
	ClassFailed     = "failed"
	ClassOverload   = "overload"
	ClassPoisoned   = "poisoned"
	ClassPanic      = "panic"
	ClassTimeout    = "timeout"
)

// svcError is a service error carrying its HTTP status and wire class.
type svcError struct {
	code  int
	class string
	err   error
}

func (e *svcError) Error() string { return e.err.Error() }
func (e *svcError) Unwrap() error { return e.err }

// errf builds a svcError from a format string.
func errf(code int, class, format string, args ...any) *svcError {
	return &svcError{code: code, class: class, err: fmt.Errorf(format, args...)}
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

// retryAfterSeconds is the Retry-After hint on 429/503 rejections. The
// rejections happen before any session state changes, so the header
// doubles as the safe-to-retry signal the client's POST retry needs.
const retryAfterSeconds = 1

// replyErrClass writes the error payload; a 429 or 503 carries the
// Retry-After hint.
func (s *Server) replyErrClass(w http.ResponseWriter, code int, class string, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
	}
	s.reply(w, code, errorBody{Error: err.Error(), Class: class})
}

// replyErr renders a svcError with its own status code and class.
func (s *Server) replyErr(w http.ResponseWriter, err *svcError) {
	s.replyErrClass(w, err.code, err.class, err.err)
}
