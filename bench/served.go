package main

// The two served workloads and the dicheckd child process they run
// against. The daemon binary is built by run.sh before any clock starts;
// every path here kills and reaps the child — normal exit, failed check,
// cancelled context — so no run leaves an orphan holding a port or the
// state directory.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/server"
)

// env is where a run finds the daemon binary and keeps its files.
type env struct {
	dicheckd string // built cmd/dicheckd binary ("" = served workloads unavailable)
	out      string // bench/out: results, traces, daemon logs, scratch
}

// daemon is one dicheckd child process on a loopback port of its own.
type daemon struct {
	cmd       *exec.Cmd
	base      string  // http://127.0.0.1:PORT
	dir       string  // scratch (the addr file), removed by stop
	bootRSSKB float64 // VmRSS once /v1/healthz answered
	exited    chan struct{}
}

// startDaemon boots dicheckd on 127.0.0.1:0 with the extra flags and
// returns once /v1/healthz answers. Its output goes to
// out/dicheckd-<workload>.log.
func startDaemon(ctx context.Context, e env, workload string, flags ...string) (*daemon, error) {
	if e.dicheckd == "" {
		return nil, errors.New("served workloads need -dicheckd (bench/run.sh builds and passes it)")
	}
	dir, err := os.MkdirTemp(e.out, "daemon-"+workload+"-")
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(e.out, "dicheckd-"+workload+".log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	cmd := exec.CommandContext(ctx, e.dicheckd, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start dicheckd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // reaps the child however it ends
		close(d.exited)
	}()
	if err := d.awaitHealthy(ctx, addrFile); err != nil {
		d.stop()
		return nil, fmt.Errorf("dicheckd (%s): %w", log.Name(), err)
	}
	d.bootRSSKB, _ = procStatusKB(cmd.Process.Pid, "VmRSS")
	return d, nil
}

func (d *daemon) awaitHealthy(ctx context.Context, addrFile string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("exited during boot")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		addr, err := os.ReadFile(addrFile)
		if err != nil || len(addr) == 0 {
			continue
		}
		d.base = "http://" + strings.TrimSpace(string(addr))
		resp, err := http.Get(d.base + "/v1/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
	return errors.New("not healthy within 15s")
}

// stop kills the child, waits until it is reaped and removes its scratch.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	os.RemoveAll(d.dir)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// servedClients is the closed-loop client count of the served workloads.
func servedClients() int { return min(numCPU, 2) }

// newAPI returns a daemon client on a keep-alive connection of its own.
// Retries are off: a refusal must show as a failed op, not as latency.
func newAPI(base string) *server.Client {
	return &server.Client{
		BaseURL:        base,
		HTTPClient:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		AttemptTimeout: 30 * time.Second,
		MaxRetries:     -1,
	}
}

func closeAPI(c *server.Client) {
	c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}

// servedLog records what the daemon answered on each traced op, for the
// in-process replica to replay and compare against.
type servedLog struct {
	mu      sync.Mutex
	entries []servedEntry
}

type servedEntry struct {
	key     int    // poll: session index; churn: text index
	visit   int    // poll: which visit of that session
	full    bool   // full report instead of a delta
	fp      string // fingerprint the daemon served
	bytes   int64  // encoded payload size the client received
	reset   bool   // a delta that degraded to the full list
	checkNS int64  // engine-run time the daemon reports in the envelope
}

// first returns the first n entries logged.
func (l *servedLog) first(n int) []servedEntry {
	return l.entries[:min(n, len(l.entries))]
}

func (l *servedLog) add(e servedEntry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// pollState is one resident session as its client sees it.
type pollState struct {
	idx    int // index into servedPoll.sess
	id     string
	base   *server.Report
	visits int
}

type pollClient struct {
	api  *server.Client
	sess []*pollState
	next int
}

// servedPoll is steady-state service reads: one probe move, then the
// report as a delta (every 8th as a full report), round-robin over
// resident sessions.
type servedPoll struct {
	seed int64
	env  env
	in   design
	sess []pollSession
	d    *daemon
	cl   []*pollClient
	log  servedLog
}

func (w *servedPoll) clients() int        { return len(w.cl) }
func (w *servedPoll) pid() int            { return w.d.pid() }
func (w *servedPoll) probeDesign() design { return w.in }

func (w *servedPoll) teardown() {
	for _, c := range w.cl {
		closeAPI(c.api)
	}
	if w.d != nil {
		w.d.stop()
	}
}

// pollWarmup is how many visits per session setup runs before the clock.
const pollWarmup = 2

func (w *servedPoll) setup(ctx context.Context) (err error) {
	*w = servedPoll{seed: w.seed, env: w.env}
	if w.in, w.sess, err = servedPollInputs(w.seed); err != nil {
		return err
	}
	// Default flags, with the session cap raised so the LRU never evicts
	// part of the set.
	if w.d, err = startDaemon(ctx, w.env, "served-poll", "-max-sessions", strconv.Itoa(2*len(w.sess))); err != nil {
		return err
	}
	w.cl = make([]*pollClient, servedClients())
	for c := range w.cl {
		w.cl[c] = &pollClient{api: newAPI(w.d.base)}
	}
	for i, s := range w.sess {
		c := w.cl[i%len(w.cl)]
		resp, err := c.api.SessionCreate(ctx, server.CreateRequest{Name: fmt.Sprintf("poll%d", i), CIF: w.in.CIF, Tech: w.in.Tech})
		if err != nil {
			return err
		}
		if _, err := c.api.SessionEdit(ctx, resp.ID, s.Seed); err != nil {
			return err
		}
		base, err := c.api.SessionReport(ctx, resp.ID)
		if err != nil {
			return err
		}
		c.sess = append(c.sess, &pollState{idx: i, id: resp.ID, base: base})
	}
	for k := 0; k < pollWarmup*len(w.sess)/len(w.cl); k++ {
		for c := range w.cl {
			if r := w.op(ctx, c, nil); r.err != nil {
				return r.err
			}
		}
	}
	return nil
}

func (w *servedPoll) op(ctx context.Context, c int, tr *tracer) opResult {
	cl := w.cl[c]
	k := cl.next
	cl.next++
	j := k % len(cl.sess)
	s := cl.sess[j]
	op := c + k*len(w.cl)
	root := tr.begin("op", op, -1)
	n, err := w.step(ctx, cl, s, j, tr, op, root)
	tr.end(root)
	return opResult{wire: n, err: err}
}

func (w *servedPoll) step(ctx context.Context, cl *pollClient, s *pollState, j int, tr *tracer, op, root int) (int, error) {
	sp := tr.begin("server.edit", op, root)
	_, err := cl.api.SessionEdit(ctx, s.id, w.sess[s.idx].pollMove(s.visits))
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	visit := s.visits
	s.visits++
	// Every 8th visit fetches the full report, staggered across sessions.
	full := (visit+j)%8 == 7
	e := servedEntry{key: s.idx, visit: visit, full: full}
	if full {
		sp = tr.begin("server.report_full", op, root)
		rep, err := cl.api.SessionReport(ctx, s.id)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		s.base, e.bytes = rep, rep.WireBytes
	} else {
		sp = tr.begin("server.report_delta", op, root)
		rep, dl, err := cl.api.SessionReportApply(ctx, s.id, s.base)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		s.base, e.bytes, e.reset = rep, dl.WireBytes, dl.Reset
	}
	if tr != nil {
		e.fp, e.checkNS = s.base.Fingerprint, s.base.CheckNS
		w.log.add(e)
	}
	return int(e.bytes), nil
}

// offline replays a session's edit script on a fresh engine: the seed
// batch, then its first `visits` probe moves.
func (w *servedPoll) offline(idx, visits int) (*core.Report, error) {
	r, err := newReplica(nil, 0, -1, w.in, true, new(engineCounters))
	if err != nil {
		return nil, err
	}
	edits := append([]layout.Edit(nil), w.sess[idx].Seed...)
	for v := 0; v < visits; v++ {
		edits = append(edits, w.sess[idx].pollMove(v)...)
	}
	if err := r.edit(nil, 0, -1, edits, ""); err != nil {
		return nil, err
	}
	return r.rep, nil
}

// verify compares every session's served report with an offline replay of
// its edit script where the clock stopped, then sends each displaced probe
// home and expects the report the cached deltas reconstructed to match a
// freshly served full one.
func (w *servedPoll) verify(ctx context.Context) (verdict, error) {
	var v verdict
	fps := make([]string, len(w.sess))
	counts := make([]int, len(w.sess))
	for _, cl := range w.cl {
		for _, s := range cl.sess {
			want, err := w.offline(s.idx, s.visits)
			if err != nil {
				return v, err
			}
			if got, want := s.base.Fingerprint, core.FingerprintDigest(want); got != want {
				return v, fmt.Errorf("served-poll: session %d after %d moves serves %s, offline replay gives %s", s.idx, s.visits, got, want)
			}
			if s.visits%2 == 1 {
				if _, err := cl.api.SessionEdit(ctx, s.id, w.sess[s.idx].pollMove(s.visits)); err != nil {
					return v, err
				}
				s.visits++
				rep, _, err := cl.api.SessionReportApply(ctx, s.id, s.base)
				if err != nil {
					return v, err
				}
				s.base = rep
			}
			full, err := cl.api.SessionReport(ctx, s.id)
			if err != nil {
				return v, err
			}
			if full.Fingerprint != s.base.Fingerprint || len(full.Violations) != len(s.base.Violations) {
				return v, fmt.Errorf("served-poll: session %d: report rebuilt from deltas (%s, %d violations) differs from the full one (%s, %d)",
					s.idx, s.base.Fingerprint, len(s.base.Violations), full.Fingerprint, len(full.Violations))
			}
			fps[s.idx], counts[s.idx] = full.Fingerprint, len(full.Violations)
		}
	}
	for i := range fps {
		v.add(fps[i], counts[i])
	}
	return v, nil
}

// replay runs the logged ops through in-process replicas, one span per
// layer call, and checks each replica report against what the daemon
// served.
func (w *servedPoll) replay(tr *tracer, cnt *engineCounters) (map[string][]float64, error) {
	reps := map[int]*replica{}
	classMS := map[string][]float64{}
	for op, e := range w.entries() {
		r := reps[e.key]
		if r == nil {
			// Bring a fresh replica to where the traced pass found the
			// session: seeded, synced, and past the warm-up visits.
			var err error
			if r, err = newReplica(nil, 0, -1, w.in, true, new(engineCounters)); err != nil {
				return nil, err
			}
			if err = r.edit(nil, 0, -1, w.sess[e.key].Seed, ""); err != nil {
				return nil, err
			}
			if _, err = r.report(nil, 0, -1, true); err != nil {
				return nil, err
			}
			for v := 0; v < e.visit; v++ {
				if err = r.edit(nil, 0, -1, w.sess[e.key].pollMove(v), ""); err != nil {
					return nil, err
				}
				if _, err = r.report(nil, 0, -1, false); err != nil {
					return nil, err
				}
			}
			r.cnt, r.classMS = cnt, classMS
			reps[e.key] = r
		}
		root := tr.begin("op", op, -1)
		err := r.edit(tr, op, root, w.sess[e.key].pollMove(e.visit), classWindow)
		if err == nil {
			_, err = r.report(tr, op, root, e.full)
		}
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if r.wire.Fingerprint != e.fp {
			return nil, fmt.Errorf("served-poll: session %d visit %d: daemon served %s, replica computes %s", e.key, e.visit, e.fp, r.wire.Fingerprint)
		}
	}
	for _, r := range reps {
		cnt.noteContexts(r.eng.Stats())
	}
	return classMS, nil
}

type churnResidentSession struct {
	id   string
	text int
}

type churnClient struct {
	api      *server.Client
	resident []churnResidentSession // oldest first
	next     int
}

// servedChurn is session turnover: create from one of four texts, fetch
// the full report, delete the oldest once the resident set is full —
// against a daemon that snapshots to a state directory every second.
type servedChurn struct {
	seed int64
	env  env
	in   []design
	want []string // offline fingerprint per text
	viol []int
	d    *daemon
	cl   []*churnClient
	log  servedLog
}

func (w *servedChurn) clients() int        { return len(w.cl) }
func (w *servedChurn) pid() int            { return w.d.pid() }
func (w *servedChurn) probeDesign() design { return w.in[0] }

func (w *servedChurn) teardown() {
	for _, c := range w.cl {
		closeAPI(c.api)
	}
	if w.d != nil {
		w.d.stop()
	}
}

// churnWarmup is how many ops setup runs before the clock: enough to fill
// the resident set and start deleting.
const churnWarmup = 2 * churnResident

func (w *servedChurn) setup(ctx context.Context) (err error) {
	*w = servedChurn{seed: w.seed, env: w.env}
	if w.in, err = servedChurnInputs(w.seed); err != nil {
		return err
	}
	w.want, w.viol = make([]string, len(w.in)), make([]int, len(w.in))
	for i, in := range w.in {
		r, err := newReplica(nil, 0, -1, in, true, new(engineCounters))
		if err != nil {
			return err
		}
		w.want[i], w.viol[i] = core.FingerprintDigest(r.rep), len(r.rep.Violations)
	}
	if err = os.RemoveAll(w.stateDir()); err != nil {
		return err
	}
	if w.d, err = startDaemon(ctx, w.env, "served-churn", "-state-dir", w.stateDir(), "-snapshot-every", "1s"); err != nil {
		return err
	}
	w.cl = make([]*churnClient, servedClients())
	for c := range w.cl {
		w.cl[c] = &churnClient{api: newAPI(w.d.base)}
	}
	for k := 0; k < churnWarmup/len(w.cl); k++ {
		for c := range w.cl {
			if r := w.op(ctx, c, nil); r.err != nil {
				return r.err
			}
		}
	}
	return nil
}

func (w *servedChurn) stateDir() string { return filepath.Join(w.env.out, "state-served-churn") }

func (w *servedChurn) op(ctx context.Context, c int, tr *tracer) opResult {
	cl := w.cl[c]
	op := c + cl.next*len(w.cl)
	cl.next++
	root := tr.begin("op", op, -1)
	n, err := w.step(ctx, cl, tr, op, root)
	tr.end(root)
	return opResult{wire: n, err: err}
}

func (w *servedChurn) step(ctx context.Context, cl *churnClient, tr *tracer, op, root int) (int, error) {
	text := op % len(w.in)
	in := w.in[text]
	sp := tr.begin("server.create", op, root)
	resp, err := cl.api.SessionCreate(ctx, server.CreateRequest{Name: in.Name, CIF: in.CIF, Tech: in.Tech})
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	cl.resident = append(cl.resident, churnResidentSession{resp.ID, text})
	sp = tr.begin("server.report_full", op, root)
	rep, err := cl.api.SessionReport(ctx, resp.ID)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	wire := int(resp.Report.WireBytes + rep.WireBytes)
	if len(cl.resident) > churnResident/len(w.cl) {
		oldest := cl.resident[0]
		cl.resident = cl.resident[1:]
		sp = tr.begin("server.delete", op, root)
		err = cl.api.SessionDelete(ctx, oldest.id)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	if rep.Fingerprint != w.want[text] || resp.Report.Fingerprint != w.want[text] {
		return 0, fmt.Errorf("served-churn: text %d: create served %s, report %s, offline check gives %s",
			text, resp.Report.Fingerprint, rep.Fingerprint, w.want[text])
	}
	if tr != nil {
		w.log.add(servedEntry{key: text, full: true, fp: rep.Fingerprint, bytes: rep.WireBytes, checkNS: rep.CheckNS})
	}
	return wire, nil
}

// verify compares every surviving session's served report with the
// offline check of its text, and expects the periodic sweep to have
// persisted the resident set.
func (w *servedChurn) verify(ctx context.Context) (verdict, error) {
	var v verdict
	if _, err := w.cl[0].api.SnapshotAll(ctx); err != nil {
		return v, err
	}
	for _, cl := range w.cl {
		for _, s := range cl.resident {
			rep, err := cl.api.SessionReport(ctx, s.id)
			if err != nil {
				return v, err
			}
			if rep.Fingerprint != w.want[s.text] {
				return v, fmt.Errorf("served-churn: surviving session %s serves %s, offline check of text %d gives %s", s.id, rep.Fingerprint, s.text, w.want[s.text])
			}
			if _, err := os.Stat(filepath.Join(w.stateDir(), s.id+".snap")); err != nil {
				return v, fmt.Errorf("served-churn: resident session not persisted: %w", err)
			}
		}
	}
	for i := range w.in {
		v.add(w.want[i], w.viol[i])
	}
	return v, nil
}

// replay runs the logged ops in-process: the create path, then the two
// report encodes the caller received.
func (w *servedChurn) replay(tr *tracer, cnt *engineCounters) (map[string][]float64, error) {
	for op, e := range w.entries() {
		root := tr.begin("op", op, -1)
		r, err := newReplica(tr, op, root, w.in[e.key], true, cnt)
		if err == nil {
			_, err = r.report(tr, op, root, true) // the report inside the create response
		}
		if err == nil {
			_, err = r.report(tr, op, root, true)
		}
		tr.end(root)
		if err != nil {
			return nil, err
		}
		cnt.noteContexts(r.eng.Stats())
		if r.wire.Fingerprint != e.fp {
			return nil, fmt.Errorf("served-churn: text %d: daemon served %s, replica computes %s", e.key, e.fp, r.wire.Fingerprint)
		}
	}
	return nil, nil
}

// clientMetrics turns what a served pass's clients saw into layer numbers:
// the median round trip per verb, payload sizes, how often a delta
// degraded to a reset, the share of the clients' waiting the daemon spent
// inside the engine, and the residual — the round trip less what the
// in-process replica of the same op accounts for (HTTP, admission, the
// session lock, debounce, the socket).
func clientMetrics(m map[string]float64, client, replica []span, entries []servedEntry) {
	totals := spanTotalsMS(client)
	for name, ms := range totals {
		if name != "op" {
			m[name+"_ms"] = median(ms)
		}
	}
	var fullKB, deltaKB []float64
	var resets, engineNS float64
	for _, e := range entries {
		if e.full {
			fullKB = append(fullKB, float64(e.bytes)/1000)
		} else {
			deltaKB = append(deltaKB, float64(e.bytes)/1000)
			if e.reset {
				resets++
			}
		}
		engineNS += float64(e.checkNS)
	}
	if len(fullKB) > 0 {
		m["server.full_kb"] = median(fullKB)
	}
	if len(deltaKB) > 0 {
		m["server.delta_kb"] = median(deltaKB)
		m["server.delta_reset_share"] = resets / float64(len(deltaKB))
	}
	var waitedMS float64
	ops := totals["op"]
	for _, t := range ops {
		waitedMS += t
	}
	m["server.engine_share"] = share(engineNS/1e6, waitedMS)
	if rep := spanTotalsMS(replica)["op"]; len(ops) > 0 && len(rep) > 0 {
		m["server.residual_ms"] = median(ops) - median(rep)
		m["trace.coverage_share"] = share(median(rep), median(ops))
	}
}

// daemonMetrics reads the gauges a running server reports about itself —
// /v1/stats, each listed session's /stats, its process's RSS — and times a
// snapshot write: it has the server persist its sessions, reads one
// snapshot back and writes it to a directory of its own.
func daemonMetrics(ctx context.Context, m map[string]float64, api *server.Client, ids []string, pid int, bootRSSKB float64, stateDir string, e env) error {
	st, err := api.ServerStats(ctx)
	if err != nil {
		return err
	}
	m["server.heap_mb"] = float64(st.HeapAllocByte) / (1 << 20)
	rejected := float64(st.Rejected429 + st.Rejected503)
	m["server.rejected_share"] = share(rejected, rejected+float64(st.Admitted))
	if rss, err := procStatusKB(pid, "VmRSS"); err == nil && st.Sessions > 0 {
		m["server.rss_mb_per_session"] = (rss - bootRSSKB) / 1024 / float64(st.Sessions)
	}
	var rechecks, debounced float64
	for _, id := range ids {
		ss, err := api.SessionStats(ctx, id)
		if err != nil {
			return err
		}
		rechecks += float64(ss.Session.Rechecks)
		debounced += float64(ss.Session.DebounceFlushes)
	}
	m["server.debounce_flush_share"] = share(debounced, rechecks)
	if stateDir == "" {
		return nil
	}
	if _, err := api.SnapshotAll(ctx); err != nil {
		return err
	}
	snap, err := server.ReadSnapshotFile(filepath.Join(stateDir, ids[0]+".snap"))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.out, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m["server.snapshot_write_ms"], err = timeMS(probeReps, func() error {
		_, err := server.WriteSnapshotFile(dir, snap)
		return err
	})
	return err
}

func (w *servedPoll) entries() []servedEntry { return w.log.first(replayOps) }

func (w *servedPoll) daemonMetrics(ctx context.Context, m map[string]float64) error {
	var ids []string
	for _, cl := range w.cl {
		for _, s := range cl.sess {
			ids = append(ids, s.id)
		}
	}
	return daemonMetrics(ctx, m, w.cl[0].api, ids, w.d.pid(), w.d.bootRSSKB, "", w.env)
}

func (w *servedChurn) entries() []servedEntry { return w.log.first(replayOps) }

func (w *servedChurn) daemonMetrics(ctx context.Context, m map[string]float64) error {
	var ids []string
	for _, cl := range w.cl {
		for _, s := range cl.resident {
			ids = append(ids, s.id)
		}
	}
	return daemonMetrics(ctx, m, w.cl[0].api, ids, w.d.pid(), w.d.bootRSSKB, w.stateDir(), w.env)
}
