// Command dicheckd is the concurrent DRC check service: a long-running
// HTTP/JSON daemon over the incremental check engine. Each named session
// owns one design and one engine; edits stream in over HTTP, rapid bursts
// are debounced into single rechecks, and reports come back
// fingerprint-identical to an offline Recheck replaying the same edits.
//
// Usage:
//
//	dicheckd [flags]
//
//	-addr HOST:PORT    listen address (default 127.0.0.1:8347; port 0
//	                   picks a free port)
//	-addr-file FILE    write the bound address to FILE once listening
//	                   (how scripts find a port-0 daemon)
//	-max-sessions N    LRU cap on live sessions (default 64)
//	-idle D            evict sessions idle longer than D (default 30m)
//	-debounce D        edit-coalescing window before a background recheck
//	                   (default 25ms)
//	-workers N         engine interaction-stage goroutines (0 = all cores)
//	-check-timeout D   deadline on request-triggered checks; expiry is a
//	                   503 + Retry-After (default 2m, 0 = none)
//	-edit-timeout D    deadline on edit batches (default 10s, 0 = none)
//	-max-inflight N    engine-run concurrency cap (default NumCPU)
//	-queue-depth N     runs allowed to wait for a slot before 429 (default 64)
//	-max-body BYTES    request-body cap; oversize is 413 (default 64 MiB)
//	-report-history N  per-session ring of recent report states the
//	                   ?since= delta path can diff against (default 8;
//	                   negative disables deltas)
//	-state-dir DIR     enable crash-safe snapshots: restore on boot,
//	                   snapshot on shutdown/eviction and every -snapshot-every
//	-snapshot-every D  periodic snapshot interval (default 30s with -state-dir)
//	-test-hooks        register POST /v1/sessions/{id}/inject (fault
//	                   injection for the load harness; never in production)
//
// Endpoints (all JSON, versioned under /v1):
//
//	POST   /v1/sessions               create a session {name, cif, tech|deck, ...}
//	GET    /v1/sessions               list sessions
//	POST   /v1/sessions/{id}/edits    apply an edit batch {edits: [...]}
//	GET    /v1/sessions/{id}/report   current report (flushes pending edits);
//	                                  ?since=<fingerprint> answers a delta
//	                                  {base, added, removed} instead
//	GET    /v1/sessions/{id}/stats    service + engine counters
//	DELETE /v1/sessions/{id}          drop a session
//	GET    /v1/stats                  daemon-wide gauges and counters
//	POST   /v1/snapshot               snapshot every session to -state-dir now
//	GET    /v1/healthz                liveness probe
//
// See the README's "Check service", "Report deltas", and "Operations"
// sections for the session lifecycle, the error contract, delta
// semantics, and recovery semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	maxSessions := flag.Int("max-sessions", 64, "LRU cap on live sessions")
	idle := flag.Duration("idle", 30*time.Minute, "evict sessions idle longer than this")
	debounce := flag.Duration("debounce", 25*time.Millisecond, "edit-coalescing window before a background recheck")
	workers := flag.Int("workers", 0, "engine interaction-stage goroutines (0 = all cores)")
	checkTimeout := flag.Duration("check-timeout", 2*time.Minute, "deadline on request-triggered checks (0 = none)")
	editTimeout := flag.Duration("edit-timeout", 10*time.Second, "deadline on edit batches (0 = none)")
	maxInflight := flag.Int("max-inflight", 0, "engine-run concurrency cap (0 = NumCPU)")
	queueDepth := flag.Int("queue-depth", 64, "engine runs allowed to wait for a slot before 429")
	maxBody := flag.Int64("max-body", 64<<20, "request-body byte cap; oversize is 413")
	reportHistory := flag.Int("report-history", 8, "per-session report states kept for ?since= deltas (negative disables)")
	stateDir := flag.String("state-dir", "", "session snapshot directory (enables crash-safe restore)")
	snapEvery := flag.Duration("snapshot-every", 30*time.Second, "periodic snapshot interval (needs -state-dir)")
	testHooks := flag.Bool("test-hooks", false, "register the fault-injection endpoint (never in production)")
	flag.Parse()

	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dicheckd: state-dir: %v\n", err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dicheckd: listen: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dicheckd: addr-file: %v\n", err)
			return 1
		}
	}
	fmt.Printf("dicheckd listening on http://%s\n", bound)

	srv := server.New(server.Config{
		MaxSessions:   *maxSessions,
		IdleTTL:       *idle,
		Debounce:      *debounce,
		Workers:       *workers,
		CheckTimeout:  *checkTimeout,
		EditTimeout:   *editTimeout,
		MaxInflight:   *maxInflight,
		QueueDepth:    *queueDepth,
		MaxBodyBytes:  *maxBody,
		ReportHistory: *reportHistory,
		StateDir:      *stateDir,
		SnapshotEvery: *snapEvery,
		TestHooks:     *testHooks,
	})
	if *stateDir != "" {
		restored, errs := srv.RestoreFromDisk(context.Background())
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "dicheckd: restore: %v\n", err)
		}
		if restored > 0 {
			fmt.Printf("dicheckd: restored %d session(s) from %s\n", restored, *stateDir)
		}
	}

	// Slow-client protection: a peer that trickles headers or never reads
	// its response cannot pin a connection goroutine forever. The write
	// timeout stays off because cold checks legitimately take minutes; the
	// per-request check deadline bounds those instead.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("dicheckd: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		srv.Close()
		return 0
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "dicheckd: serve: %v\n", err)
			srv.Close()
			return 1
		}
	}
	srv.Close()
	return 0
}
