package server

import (
	"context"
	"time"
)

// clock is the server's one source of scheduling time: request
// deadlines, the debounce timer, the idle janitor, the periodic snapshot
// sweep and the injected slow check all read it, and so do the LRU and
// idle stamps. Production uses realClock (package time); the package
// tests swap in a fake clock and drive every timer from a seeded
// schedule. Wall-clock measurements that are reported, not acted on
// (recheck durations, uptime), stay on package time.
type clock interface {
	Now() time.Time
	// AfterFunc calls f in its own goroutine once d has elapsed.
	AfterFunc(d time.Duration, f func()) timer
	// WithTimeout is context.WithTimeout measured on this clock.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// Sleep waits d, or until ctx is done if that comes first.
	Sleep(ctx context.Context, d time.Duration)
}

// timer is a pending AfterFunc; Stop reports whether it stopped the call
// before it fired.
type timer interface{ Stop() bool }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) timer { return time.AfterFunc(d, f) }

func (realClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

func (realClock) Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
