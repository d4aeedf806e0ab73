package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvictRaceHammer is the eviction-race regression test: concurrent
// editors and reporters hammer sessions while an evictor sweeps them out
// from underneath (snapshot-then-close, state directory configured) and
// creators resurrect them. The contract under this race: every response
// is a success, a 404 (fully evicted), or a 410 (evicted mid-request) —
// never a 5xx, never a torn state, and with -race, no data race.
func TestEvictRaceHammer(t *testing.T) {
	text, _ := cmosCIF(t, 2, 2)
	srv, c := newTestServer(t, Config{
		Debounce: time.Millisecond, // keep the timer path in the race too
		IdleTTL:  time.Minute,
		StateDir: t.TempDir(),
	})
	noRetry(c)

	const nSessions = 4
	var ids [nSessions]atomic.Value // string: current id for slot i ("" = dead)
	for i := 0; i < nSessions; i++ {
		created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "hammer", CIF: text, Tech: "cmos"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i].Store(created.ID)
	}

	okClass := func(err error) bool {
		if err == nil {
			return true
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			return false
		}
		switch apiErr.Status {
		case http.StatusNotFound, http.StatusGone:
			return true
		}
		return false
	}

	// Editors and reporters, one pair per slot, each making a fixed number
	// of requests; the evictor and the creators run until they are done.
	const rounds = 150
	stop := make(chan struct{})
	var wg, clients sync.WaitGroup
	fail := make(chan error, 64)

	for i := 0; i < nSessions; i++ {
		slot := i
		clients.Add(2)
		go func() {
			defer clients.Done()
			flip := false
			for n := 0; n < rounds; n++ {
				id, _ := ids[slot].Load().(string)
				if id == "" {
					continue
				}
				var err error
				if flip {
					_, err = c.SessionEdit(context.Background(), id, breakEdits())
				} else {
					_, err = c.SessionEdit(context.Background(), id, revertEdits())
				}
				flip = !flip
				if !okClass(err) {
					select {
					case fail <- err:
					default:
					}
				}
			}
		}()
		go func() {
			defer clients.Done()
			for n := 0; n < rounds; n++ {
				id, _ := ids[slot].Load().(string)
				if id == "" {
					continue
				}
				if _, err := c.SessionReport(context.Background(), id); !okClass(err) {
					select {
					case fail <- err:
					default:
					}
				}
			}
		}()
	}

	// The evictor: every few milliseconds, sweep everything idle (the
	// cutoff is in the future, so every session qualifies) — exactly the
	// retire path a production idle sweep takes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				srv.SweepIdle(time.Now().Add(2 * time.Minute))
			}
		}
	}()

	// The creators: resurrect any slot whose session got swept.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			for slot := 0; slot < nSessions; slot++ {
				id, _ := ids[slot].Load().(string)
				if id == "" {
					continue
				}
				if _, err := c.SessionStats(context.Background(), id); err != nil {
					created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "hammer", CIF: text, Tech: "cmos"})
					if err == nil {
						ids[slot].Store(created.ID)
					}
				}
			}
		}
	}()

	clients.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatalf("hammer saw a non-contract response: %v", err)
	default:
	}

	// The daemon must still be fully healthy after the storm.
	created, err := c.SessionCreate(context.Background(), CreateRequest{Name: "after", CIF: text, Tech: "cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionReport(context.Background(), created.ID); err != nil {
		t.Fatal(err)
	}
	gst, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gst.PanicsRecovered != 0 || gst.SessionsPoisoned != 0 {
		t.Fatalf("the race recovered panics: %+v", gst)
	}
}
