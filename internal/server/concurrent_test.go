package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cif"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// TestConcurrentSessions hammers the daemon under -race: 8 independent
// sessions driven from their own goroutines with interleaved edits and
// reports, plus one shared session with three goroutines racing edits,
// reports, and stats against each other — locking in that per-session
// engine access is serialized while sessions stay independent.
func TestConcurrentSessions(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "conc", 2, 2)
	text, err := cif.Write(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	// A short debounce keeps the background timer path racing with the
	// report-flush path, which is exactly the interleaving to stress.
	_, c := newTestServer(t, Config{Debounce: time.Millisecond, MaxSessions: 32})

	const sessions = 8
	const editsPerSession = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions*4)

	var drivers sync.WaitGroup
	drive := func(name string) {
		defer drivers.Done()
		created, err := c.SessionCreate(context.Background(), CreateRequest{Name: name, CIF: text, Tech: "nmos"})
		if err != nil {
			errs <- fmt.Errorf("%s: create: %w", name, err)
			return
		}
		want := created.Report.Fingerprint
		for i := 0; i < editsPerSession; i++ {
			dy := int64(50)
			if i%2 == 1 {
				dy = -50
			}
			if _, err := c.SessionEdit(context.Background(), created.ID, []layout.Edit{{
				Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: dy,
			}}); err != nil {
				errs <- fmt.Errorf("%s: edit %d: %w", name, i, err)
				return
			}
			if i%2 == 1 {
				// Back at the start state: the report must match the
				// initial fingerprint exactly, however the flushes and
				// timers interleaved.
				rep, err := c.SessionReport(context.Background(), created.ID)
				if err != nil {
					errs <- fmt.Errorf("%s: report %d: %w", name, i, err)
					return
				}
				if rep.Fingerprint != want {
					errs <- fmt.Errorf("%s: fingerprint drifted at edit %d", name, i)
					return
				}
			}
		}
		if err := c.SessionDelete(context.Background(), created.ID); err != nil {
			errs <- fmt.Errorf("%s: delete: %w", name, err)
		}
	}

	drivers.Add(sessions)
	for i := 0; i < sessions; i++ {
		go drive(fmt.Sprintf("sess%d", i))
	}

	// One extra session shared by racing writers and readers.
	shared, err := c.SessionCreate(context.Background(), CreateRequest{Name: "shared", CIF: text, Tech: "nmos"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dy := int64(50)
			if i%2 == 1 {
				dy = -50
			}
			if _, err := c.SessionEdit(context.Background(), shared.ID, []layout.Edit{{
				Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: dy,
			}}); err != nil {
				errs <- fmt.Errorf("shared edit: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.SessionReport(context.Background(), shared.ID); err != nil {
				errs <- fmt.Errorf("shared report: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.SessionStats(context.Background(), shared.ID); err != nil {
				errs <- fmt.Errorf("shared stats: %w", err)
				return
			}
		}
	}()

	// The shared session's racers run until every independent driver is
	// done.
	drivers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
