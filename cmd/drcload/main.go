// Command drcload is the fault-injecting load harness for dicheckd. It
// drives N concurrent sessions through edit/report loops against a live
// daemon, records per-operation latency distributions and an error-class
// histogram, optionally injects chaos (random session kills, slow checks
// via the daemon's test hook, malformed edits), asserts hard SLOs, and
// writes the run as a BENCH_LOAD_<date>.json artifact.
//
// It scales from smoke runs (4 sessions) to thousands: driver starts are
// staggered across a ramp window so the daemon sees a realistic arrival
// curve instead of a thundering herd of cold checks, and -churn-every
// adds steady-state session turnover on top of the edit/report loop.
//
// Usage:
//
//	drcload -addr HOST:PORT [flags]
//
//	-addr            daemon address (required; scheme optional)
//	-sessions N      concurrent sessions, one driver goroutine each (default 4)
//	-duration D      how long to drive load (default 10s)
//	-rows/-cols      per-session CMOS chip size (default 4×4; use 1×2 for
//	                 thousand-session runs)
//	-violations N    seed each session with N deliberate width violations so
//	                 full reports have realistic weight (default 0)
//	-delta           report via the ?since= delta path (SessionReportApply),
//	                 recording full-vs-delta payload-bytes histograms
//	-churn-every D   mean interval between voluntary delete/recreate cycles
//	                 per driver (0 = no churn)
//	-ramp D          window over which driver starts are staggered
//	                 (default: 5ms per session, capped at duration/4)
//	-chaos           enable fault injection: random session kills, injected
//	                 slow checks (needs dicheckd -test-hooks), malformed edits
//	-chaos-every D   mean interval between chaos events (default 300ms)
//	-slow-ms N       injected slow-check duration for chaos (default 150)
//	-seed N          RNG seed (default 1; runs are reproducible per seed)
//	-o DIR           BENCH_LOAD_<date>.json output directory ("" = skip, default ".")
//	-slo-p99 D       fail if report p99 exceeds D (0 = skip)
//	-slo-goroutines N fail if the daemon ends with more goroutines (0 = skip)
//	-slo-delta-ratio F fail if p99 delta payload bytes exceed F × p99 full
//	                 payload bytes (0 = skip; delta mode only)
//
// Exit status is nonzero when any SLO is violated. Two SLOs are always
// on: no 5xx responses other than 503, and no panic/poisoned error
// classes — chaos included, the daemon must degrade with structured
// backpressure, never internal errors. Delta mode adds a third: every
// delta must apply cleanly to its base (a reconstruction failure counts
// like a transport error).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cif"
	"repro/internal/layout"
	"repro/internal/server"
	"repro/internal/tech"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

// driver owns one session slot: it creates (and, after a chaos kill or a
// churn cycle, recreates) its session and loops edit/report against it.
type driver struct {
	idx        int
	violations int
	delta      bool
	mu         sync.Mutex
	id         string // current session id ("" = needs create)
	base       *server.Report
	rng        *rand.Rand
	dy         int64
	edit       []time.Duration
	rep        []time.Duration
	crt        []time.Duration
	fullBytes  []int64
	deltaBytes []int64
}

// collector aggregates error classes and delta/churn counters across
// drivers and the chaos actor.
type collector struct {
	mu        sync.Mutex
	requests  uint64
	errClass  map[string]uint64
	transport uint64
	bad5xx    uint64 // 5xx other than 503
	resets    uint64 // deltas that degraded to the full list
	churns    uint64 // voluntary delete/recreate cycles
}

func (c *collector) note(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	if err == nil {
		return
	}
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		class := apiErr.Class
		if class == "" {
			class = fmt.Sprintf("http_%d", apiErr.Status)
		}
		c.errClass[class]++
		if apiErr.Status >= 500 && apiErr.Status != http.StatusServiceUnavailable {
			c.bad5xx++
		}
		return
	}
	c.transport++
}

func (c *collector) bump(field *uint64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

func run() int {
	addr := flag.String("addr", "", "daemon address (required)")
	sessions := flag.Int("sessions", 4, "concurrent sessions")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	rows := flag.Int("rows", 4, "per-session chip rows")
	cols := flag.Int("cols", 4, "per-session chip columns")
	violations := flag.Int("violations", 0, "deliberate width violations seeded per session")
	delta := flag.Bool("delta", false, "report via the ?since= delta path")
	churnEvery := flag.Duration("churn-every", 0, "mean interval between voluntary session delete/recreate cycles (0 = off)")
	ramp := flag.Duration("ramp", 0, "driver start stagger window (0 = auto)")
	chaos := flag.Bool("chaos", false, "inject faults: session kills, slow checks, malformed edits")
	chaosEvery := flag.Duration("chaos-every", 300*time.Millisecond, "mean interval between chaos events")
	slowMS := flag.Int("slow-ms", 150, "injected slow-check duration (chaos)")
	seed := flag.Int64("seed", 1, "RNG seed")
	outDir := flag.String("o", ".", "BENCH_LOAD_<date>.json output directory (empty = skip)")
	sloP99 := flag.Duration("slo-p99", 0, "fail if report p99 exceeds this (0 = skip)")
	sloGoroutines := flag.Int("slo-goroutines", 0, "fail if daemon ends with more goroutines (0 = skip)")
	sloDeltaRatio := flag.Float64("slo-delta-ratio", 0, "fail if p99 delta bytes exceed this fraction of p99 full bytes (0 = skip)")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "drcload: -addr is required")
		return 2
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "chip", *rows, *cols)
	cifSrc, err := cif.Write(chip.Design, tc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drcload: cif: %v\n", err)
		return 2
	}

	ctx := context.Background()
	cl := server.NewClient(base)
	cl.AttemptTimeout = 2 * time.Minute
	if _, err := cl.ServerStats(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drcload: daemon not reachable at %s: %v\n", base, err)
		return 2
	}

	col := &collector{errClass: make(map[string]uint64)}
	drivers := make([]*driver, *sessions)
	for i := range drivers {
		drivers[i] = &driver{
			idx: i, violations: *violations, delta: *delta,
			rng: rand.New(rand.NewSource(*seed + int64(i))), dy: 250,
		}
	}

	stagger := *ramp
	if stagger <= 0 {
		stagger = time.Duration(*sessions) * 5 * time.Millisecond
		if max := *duration / 4; stagger > max {
			stagger = max
		}
	}
	fmt.Printf("drcload: %d sessions for %v against %s (chaos=%v delta=%v ramp=%v)\n",
		*sessions, *duration, base, *chaos, *delta, stagger)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		var delay time.Duration
		if *sessions > 1 {
			delay = stagger * time.Duration(i) / time.Duration(*sessions)
		}
		go func(d *driver, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			d.loop(cl, cifSrc, col, *churnEvery, deadline)
		}(d, delay)
	}
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	if *chaos {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			chaosLoop(cl, drivers, col, rand.New(rand.NewSource(*seed+9001)),
				*chaosEvery, *slowMS, stopChaos)
		}()
	}
	wg.Wait()
	close(stopChaos)
	chaosWG.Wait()

	// Let in-flight daemon work settle before reading the end-of-run
	// resource gauges: the bounded-goroutine claim is about steady state,
	// not the instant the load stops.
	time.Sleep(300 * time.Millisecond)
	st, err := cl.ServerStats(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drcload: final stats: %v\n", err)
		return 1
	}

	var edits, reps, crts []time.Duration
	var fullBytes, deltaBytes []int64
	for _, d := range drivers {
		d.mu.Lock()
		edits = append(edits, d.edit...)
		reps = append(reps, d.rep...)
		crts = append(crts, d.crt...)
		fullBytes = append(fullBytes, d.fullBytes...)
		deltaBytes = append(deltaBytes, d.deltaBytes...)
		d.mu.Unlock()
	}
	col.mu.Lock()
	snap := loadSnapshot{
		Date:             time.Now().Format("2006-01-02"),
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		Sessions:         *sessions,
		Chaos:            *chaos,
		Delta:            *delta,
		DurationNS:       duration.Nanoseconds(),
		Requests:         col.requests,
		Reports:          summarizeLatencies(reps),
		Edits:            summarizeLatencies(edits),
		Creates:          summarizeLatencies(crts),
		ErrClass:         col.errClass,
		Transport:        col.transport,
		FullBytes:        summarizeBytes(fullBytes),
		DeltaBytes:       summarizeBytes(deltaBytes),
		DeltaResets:      col.resets,
		Churns:           col.churns,
		ServerGoroutines: st.Goroutines,
		ServerHeapBytes:  st.HeapAllocByte,
	}
	bad5xx := col.bad5xx
	transport := col.transport
	col.mu.Unlock()

	if bad5xx > 0 {
		snap.SLOViolations = append(snap.SLOViolations,
			fmt.Sprintf("%d responses were 5xx other than 503", bad5xx))
	}
	for _, class := range []string{"panic", "poisoned"} {
		if n := snap.ErrClass[class]; n > 0 {
			snap.SLOViolations = append(snap.SLOViolations,
				fmt.Sprintf("%d responses with class %q", n, class))
		}
	}
	if transport > 0 {
		snap.SLOViolations = append(snap.SLOViolations,
			fmt.Sprintf("%d transport-level request failures", transport))
	}
	if *sloP99 > 0 && snap.Reports.P99NS > sloP99.Nanoseconds() {
		snap.SLOViolations = append(snap.SLOViolations,
			fmt.Sprintf("report p99 %v exceeds SLO %v", time.Duration(snap.Reports.P99NS), *sloP99))
	}
	if *sloGoroutines > 0 && st.Goroutines > *sloGoroutines {
		snap.SLOViolations = append(snap.SLOViolations,
			fmt.Sprintf("daemon has %d goroutines, SLO %d", st.Goroutines, *sloGoroutines))
	}
	if *sloDeltaRatio > 0 {
		switch {
		case snap.DeltaBytes.Count == 0 || snap.FullBytes.Count == 0:
			snap.SLOViolations = append(snap.SLOViolations,
				fmt.Sprintf("delta-ratio SLO set but no samples (full=%d delta=%d)",
					snap.FullBytes.Count, snap.DeltaBytes.Count))
		case float64(snap.DeltaBytes.P99) > *sloDeltaRatio*float64(snap.FullBytes.P99):
			snap.SLOViolations = append(snap.SLOViolations,
				fmt.Sprintf("delta p99 %d bytes exceeds %.2f × full p99 %d bytes",
					snap.DeltaBytes.P99, *sloDeltaRatio, snap.FullBytes.P99))
		}
	}

	fmt.Printf("drcload: %d requests; report p50=%v p95=%v p99=%v; edit p99=%v\n",
		snap.Requests,
		time.Duration(snap.Reports.P50NS), time.Duration(snap.Reports.P95NS),
		time.Duration(snap.Reports.P99NS), time.Duration(snap.Edits.P99NS))
	if *delta {
		fmt.Printf("drcload: payload bytes: full p50=%d p99=%d, delta p50=%d p99=%d (%d resets, %d churns)\n",
			snap.FullBytes.P50, snap.FullBytes.P99,
			snap.DeltaBytes.P50, snap.DeltaBytes.P99, snap.DeltaResets, snap.Churns)
	}
	if len(snap.ErrClass) > 0 {
		fmt.Printf("drcload: errors by class: %v\n", snap.ErrClass)
	}
	fmt.Printf("drcload: daemon ends with %d goroutines, %.1f MiB heap\n",
		st.Goroutines, float64(st.HeapAllocByte)/(1<<20))

	if *outDir != "" {
		out, err := snap.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "drcload: marshal: %v\n", err)
			return 1
		}
		path := filepath.Join(*outDir, snap.Filename())
		if err := os.WriteFile(path, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "drcload: write: %v\n", err)
			return 1
		}
		fmt.Printf("drcload: wrote %s\n", path)
	}

	if len(snap.SLOViolations) > 0 {
		for _, v := range snap.SLOViolations {
			fmt.Fprintf(os.Stderr, "drcload: SLO VIOLATION: %s\n", v)
		}
		return 1
	}
	fmt.Println("drcload: all SLOs met")
	return 0
}

// loop drives one session until the deadline: create it (with a floating
// probe box to move and the configured violation seed), then a steady
// mix of move edits and reports, with optional voluntary churn. A
// session killed by chaos surfaces as not_found/gone; the driver simply
// recreates and keeps going — exactly what a resilient client does.
func (d *driver) loop(cl *server.Client, cifSrc string, col *collector, churnEvery time.Duration, deadline time.Time) {
	ctx := context.Background()
	nextChurn := time.Time{}
	if churnEvery > 0 {
		nextChurn = time.Now().Add(jitter(d.rng, churnEvery))
	}
	for time.Now().Before(deadline) {
		if d.currentID() == "" {
			if !d.create(ctx, cl, cifSrc, col) {
				time.Sleep(100 * time.Millisecond)
				continue
			}
		}
		id := d.currentID()
		if churnEvery > 0 && time.Now().After(nextChurn) {
			// Voluntary turnover: the steady state at thousands of sessions
			// includes sessions dying and being replaced, not just editing.
			err := cl.SessionDelete(ctx, id)
			col.note(ignoreSessionLost(err))
			col.bump(&col.churns)
			d.setID("")
			nextChurn = time.Now().Add(jitter(d.rng, churnEvery))
			continue
		}
		start := time.Now()
		var err error
		if d.rng.Intn(4) == 0 {
			err = d.report(ctx, cl, id, col)
			d.record(&d.rep, time.Since(start))
		} else {
			_, err = cl.SessionEdit(ctx, id, []layout.Edit{{
				Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: d.dy,
			}})
			d.dy = -d.dy
			d.record(&d.edit, time.Since(start))
		}
		col.note(err)
		if isSessionLost(err) {
			d.setID("")
		}
	}
}

// report performs one report operation. In delta mode it polls through
// SessionReportApply — only the changes since the cached base cross the
// wire — with a 1-in-8 full fetch so the run always has a full-payload
// distribution to compare against; otherwise it fetches the full report.
func (d *driver) report(ctx context.Context, cl *server.Client, id string, col *collector) error {
	if !d.delta || d.rng.Intn(8) == 0 {
		rep, err := cl.SessionReport(ctx, id)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.base = rep
		d.fullBytes = append(d.fullBytes, rep.WireBytes)
		d.mu.Unlock()
		return nil
	}
	d.mu.Lock()
	base := d.base
	d.mu.Unlock()
	rep, dl, err := cl.SessionReportApply(ctx, id, base)
	if err != nil {
		return err
	}
	if dl.Reset {
		col.bump(&col.resets)
	}
	d.mu.Lock()
	d.base = rep
	d.deltaBytes = append(d.deltaBytes, dl.WireBytes)
	d.mu.Unlock()
	return nil
}

func (d *driver) create(ctx context.Context, cl *server.Client, cifSrc string, col *collector) bool {
	start := time.Now()
	resp, err := cl.SessionCreate(ctx, server.CreateRequest{
		Name: fmt.Sprintf("load%d", d.idx),
		CIF:  cifSrc,
		Tech: "cmos",
	})
	d.record(&d.crt, time.Since(start))
	col.note(err)
	if err != nil {
		return false
	}
	// Seed edits: optional deliberate width violations (sub-minimum metal
	// slivers, spaced far apart so they interact with nothing), then the
	// probe the move edits target — a floating metal box well away from
	// the chip; its fanout violation is expected and harmless. The probe
	// goes last so Index -1 keeps addressing it.
	x0 := -30000 - int64(d.idx)*4000
	edits := make([]layout.Edit, 0, d.violations+1)
	for j := 0; j < d.violations; j++ {
		y := -20000 - int64(j)*5000
		edits = append(edits, layout.Edit{
			Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal,
			Box: []int64{x0, y, x0 + 100, y + 1000},
		})
	}
	edits = append(edits, layout.Edit{
		Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal,
		Box: []int64{x0, 0, x0 + 1000, 1000},
	})
	_, err = cl.SessionEdit(ctx, resp.ID, edits)
	col.note(err)
	if err != nil && isSessionLost(err) {
		return false
	}
	d.mu.Lock()
	d.id = resp.ID
	d.base = resp.Report
	d.mu.Unlock()
	// Delta mode: sync one full report after the seed edits so polling
	// starts from the seeded state — the cold-sync-then-poll pattern a
	// real client uses. Without it the first delta of every (re)created
	// session re-ships all the seeded violations and the churn rate leaks
	// into the delta payload tail.
	if d.delta {
		rep, err := cl.SessionReport(ctx, resp.ID)
		col.note(err)
		if err != nil {
			if isSessionLost(err) {
				d.setID("")
				return false
			}
			return true // next poll resyncs (one oversized delta, then steady state)
		}
		d.mu.Lock()
		d.base = rep
		d.fullBytes = append(d.fullBytes, rep.WireBytes)
		d.mu.Unlock()
	}
	return true
}

func (d *driver) currentID() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.id
}

func (d *driver) setID(id string) {
	d.mu.Lock()
	d.id = id
	if id == "" {
		d.base = nil
	}
	d.mu.Unlock()
}

func (d *driver) record(dst *[]time.Duration, dur time.Duration) {
	d.mu.Lock()
	*dst = append(*dst, dur)
	d.mu.Unlock()
}

// jitter spreads an interval ±50% so per-driver cycles don't phase-lock.
func jitter(rng *rand.Rand, every time.Duration) time.Duration {
	return every/2 + time.Duration(rng.Int63n(int64(every)+1))
}

// isSessionLost reports whether err means the session no longer exists
// (chaos killed it, or an eviction raced us).
func isSessionLost(err error) bool {
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Status == http.StatusNotFound || apiErr.Status == http.StatusGone
}

// chaosLoop is the fault injector: at randomized intervals it kills a
// random live session, arms a slow check on one (when the daemon exposes
// the test hook), or fires a malformed edit batch. Every fault must come
// back as a structured 4xx/503 — anything else fails the run's SLOs.
func chaosLoop(cl *server.Client, drivers []*driver, col *collector,
	rng *rand.Rand, every time.Duration, slowMS int, stop <-chan struct{}) {
	ctx := context.Background()
	for {
		wait := jitter(rng, every)
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		d := drivers[rng.Intn(len(drivers))]
		id := d.currentID()
		if id == "" {
			continue
		}
		switch rng.Intn(3) {
		case 0: // kill: the driver sees 404/410 and recreates
			err := cl.SessionDelete(ctx, id)
			col.note(ignoreSessionLost(err))
		case 1: // slow check: drives deadline expiries / queue pressure
			err := cl.SessionInject(ctx, id, server.InjectRequest{SlowMS: slowMS, SlowCount: 2})
			// 404 when the hook is off or the session just died — not a fault.
			col.note(ignoreSessionLost(err))
		case 2: // malformed edit: must be a clean 400, never a 500
			_, err := cl.SessionEdit(ctx, id, []layout.Edit{{Op: "warp_reality", Symbol: "chip"}})
			if err == nil {
				col.note(fmt.Errorf("malformed edit was accepted"))
			} else {
				var apiErr *server.APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest {
					err = nil // expected
				}
				col.note(ignoreSessionLost(err))
			}
		}
	}
}

// ignoreSessionLost drops expected lost-session errors from chaos
// actions that raced a kill.
func ignoreSessionLost(err error) error {
	if isSessionLost(err) {
		return nil
	}
	return err
}
