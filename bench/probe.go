package main

// The layer probe: every layer's public function timed on one design,
// outside any workload op. A traced run reports these for the layers its
// own ops never call — cif.parse on edit-loop, the wire verbs on
// batch-cold — so each workload's row of per-layer metrics is measured,
// never filled in.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	dic "repro"
	"repro/internal/cif"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/server"
)

// probeReps is how many times the probe repeats each measurement; the
// median is reported.
const probeReps = 5

// timeMS returns the median wall of reps calls of fn, in milliseconds.
func timeMS(reps int, fn func() error) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms), nil
}

// probeEdits returns, for a design whose top symbol calls row
// definitions, one out-and-back pair of single-edit batches per edit
// class, after appending a floating probe box to the top symbol (both
// shipped MOS technologies call their metal layer "metal").
func probeEdits(d *layout.Design) (setup []layout.Edit, pairs map[string][2][]layout.Edit, err error) {
	top := d.Top
	if top == nil || len(top.Calls) == 0 || len(top.Calls[0].Target.Elements) == 0 {
		return nil, nil, fmt.Errorf("probe: design %q has no row definition to edit", d.Name)
	}
	row := top.Calls[0].Target.Name
	move := func(e layout.Edit, dx, dy int64) []layout.Edit {
		e.DX, e.DY = dx, dy
		return []layout.Edit{e}
	}
	setup = []layout.Edit{{Op: layout.OpAddBox, Symbol: top.Name, Layer: "metal", Box: []int64{-60000, 0, -58000, 2000}}}
	window := layout.Edit{Op: layout.OpMoveElement, Symbol: top.Name, Index: -1}
	symbol := layout.Edit{Op: layout.OpMoveElement, Symbol: row, Index: 0}
	call := layout.Edit{Op: layout.OpMoveCall, Symbol: top.Name, Index: 0}
	return setup, map[string][2][]layout.Edit{
		classWindow: {move(window, 0, 500), move(window, 0, -500)},
		classSymbol: {move(symbol, 0, 500), move(symbol, 0, -500)},
		classStruct: {move(call, -500, 0), move(call, 500, 0)},
	}, nil
}

// probe measures in on every layer and returns the metrics by name.
func probe(ctx context.Context, in design, e env) (map[string]float64, error) {
	m := map[string]float64{}

	// A short synthetic session through the replica: the create path, a
	// few edits of each class, a delta and a full report after each.
	tr := newTracer()
	cnt := new(engineCounters)
	root := tr.begin("aux", 0, -1)
	r, err := newReplica(tr, 0, root, in, true, cnt)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	setup, pairs, err := probeEdits(r.d)
	if err != nil {
		return nil, err
	}
	if err := r.edit(nil, 0, -1, setup, ""); err != nil {
		return nil, err
	}
	if _, err := r.report(nil, 0, -1, true); err != nil {
		return nil, err
	}
	// The probe's "op" is the polling op — one window edit, then the
	// delta; everything else it times sits under "aux" roots so that the
	// op span stays comparable with servedProbe's round trip.
	op := 1
	step := func(rootName, class string, edits []layout.Edit, full bool) error {
		root := tr.begin(rootName, op, -1)
		defer func() { tr.end(root); op++ }()
		if edits != nil {
			if err := r.edit(tr, op, root, edits, class); err != nil {
				return err
			}
		}
		_, err := r.report(tr, op, root, full)
		return err
	}
	for rep := 0; rep < probeReps; rep++ {
		for _, class := range []string{classWindow, classSymbol, classStruct} {
			for _, edits := range pairs[class] {
				rootName := "aux"
				if class == classWindow {
					rootName = "op"
				}
				if err := step(rootName, class, edits, false); err != nil {
					return nil, err
				}
				if err := step("aux", "", nil, true); err != nil {
					return nil, err
				}
			}
		}
	}
	layerMetrics(m, tr.spans)
	cnt.noteContexts(r.eng.Stats())
	cnt.metrics(m)
	for class, ms := range r.classMS {
		m["core.recheck_"+class+"_ms"] = median(ms)
	}

	// Kernels no session calls on its own.
	tc := r.tc
	fresh := func() (*layout.Design, error) { return cif.Parse(in.CIF, tc, in.Name) }
	parseMS, err := timeMS(probeReps, func() error { _, err := fresh(); return err })
	if err != nil {
		return nil, err
	}
	m["cif.parse_ms"] = parseMS
	m["cif.parse_mb_per_s"] = float64(len(in.CIF)) / 1e6 / (parseMS / 1e3)
	if m["tech.resolve_ms"], err = timeMS(probeReps, func() error { _, err := dic.ResolveTechnology(in.Tech, ""); return err }); err != nil {
		return nil, err
	}
	d, err := fresh()
	if err != nil {
		return nil, err
	}
	m["layout.hash_ms"], _ = timeMS(probeReps, func() error { d.ContentHashes(); return nil })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if m["core.cold_engine_ms"], err = timeMS(probeReps, func() error { _, err := dic.NewEngine(tc, dic.Options{}).Check(d); return err }); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m["core.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / probeReps
	if m["flat.check_ms"], err = timeMS(probeReps, func() error { _, err := dic.CheckFlat(d, tc, dic.FlatOptions{}); return err }); err != nil {
		return nil, err
	}
	if err := geomKernels(m, d, tc); err != nil {
		return nil, err
	}
	return m, servedProbe(ctx, m, in, e, setup, pairs[classWindow], tr.spans)
}

// geomKernels times the two geometry kernels under the checker on the
// design's flattened geometry: the per-layer union and the candidate-pair
// sweep at the technology's interaction radius.
func geomKernels(m map[string]float64, d *layout.Design, tc *dic.Technology) error {
	flatEls, err := d.Flatten()
	if err != nil {
		return err
	}
	byLayer := make([][]geom.Region, len(tc.Layers()))
	var pf geom.PairFinder
	for i, fe := range flatEls {
		reg, err := fe.Region()
		if err != nil {
			return err
		}
		byLayer[fe.Elem.Layer] = append(byLayer[fe.Elem.Layer], reg)
		pf.AddRect(i, fe.Bounds(), int(fe.Elem.Layer))
	}
	m["geom.layer_union_ms"], _ = timeMS(probeReps, func() error {
		for _, regs := range byLayer {
			geom.BulkUnion(regs)
		}
		return nil
	})
	pairs := 0
	m["geom.pair_sweep_ms"], _ = timeMS(probeReps, func() error {
		// A fresh finder per repetition: the sweep order is cached after
		// the first Pairs call.
		sweep := pf
		sweep.Pairs(tc.MaxSpacing(), nil, func(geom.Pair) { pairs++ })
		return nil
	})
	if pairs == 0 {
		return fmt.Errorf("probe: pair sweep over %d elements found no candidate pair", len(flatEls))
	}
	return nil
}

// servedProbe serves the design from an in-process server.Server with a
// state directory and times each wire verb a client would issue, the
// snapshot write, and the resource gauges. Its op is the polling op: one
// window edit, then the delta.
func servedProbe(ctx context.Context, m map[string]float64, in design, e env, setup []layout.Edit, window [2][]layout.Edit, replica []span) error {
	stateDir, err := os.MkdirTemp(e.out, "probe-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	srv := server.New(server.Config{StateDir: stateDir})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	api := newAPI(ts.URL)
	defer closeAPI(api)

	rssBefore, _ := procStatusKB(os.Getpid(), "VmRSS")
	tr := newTracer()
	var log servedLog
	s := tr.begin("server.create", 0, -1)
	resp, err := api.SessionCreate(ctx, server.CreateRequest{Name: in.Name, CIF: in.CIF, Tech: in.Tech})
	tr.end(s)
	if err != nil {
		return err
	}
	if _, err := api.SessionEdit(ctx, resp.ID, setup); err != nil {
		return err
	}
	base, err := api.SessionReport(ctx, resp.ID)
	if err != nil {
		return err
	}
	for op := 1; op <= 2*probeReps; op++ {
		root := tr.begin("op", op, -1)
		s := tr.begin("server.edit", op, root)
		_, err := api.SessionEdit(ctx, resp.ID, window[op%2])
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("server.report_delta", op, root)
		rep, dl, err := api.SessionReportApply(ctx, resp.ID, base)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return err
		}
		log.add(servedEntry{bytes: dl.WireBytes, reset: dl.Reset, checkNS: dl.CheckNS})
		s = tr.begin("server.report_full", op, -1)
		base, err = api.SessionReport(ctx, resp.ID)
		tr.end(s)
		if err != nil {
			return err
		}
		if base.Fingerprint != rep.Fingerprint {
			return fmt.Errorf("probe: delta rebuilt %s, full report is %s", rep.Fingerprint, base.Fingerprint)
		}
		log.add(servedEntry{full: true, bytes: base.WireBytes})
	}
	if err := daemonMetrics(ctx, m, api, []string{resp.ID}, os.Getpid(), rssBefore, stateDir, e); err != nil {
		return err
	}
	s = tr.begin("server.delete", 0, -1)
	err = api.SessionDelete(ctx, resp.ID)
	tr.end(s)
	if err != nil {
		return err
	}
	clientMetrics(m, tr.spans, replica, log.entries)
	return nil
}
