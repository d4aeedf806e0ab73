package main

// replica drives one design through the same public calls a dicheckd
// session makes — parse, resolve, engine check, edit, recheck, report
// build, encode, client decode — one span around each. edit-loop is a
// replica with no reports; the served workloads replay their ops through
// one to attribute the client's round trip from outside; the layer probe
// runs a short synthetic session through one.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	dic "repro"
	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/server"
)

// Stage names the checker reports in Report.Stats.Stages, and the span
// each is recorded under.
var stageSpans = map[string]string{
	"check elements":                 "core.stage.elements",
	"check primitive symbols":        "core.stage.primitive",
	"check layer rules":              "core.stage.layer_rules",
	"generate hierarchical net list": "netlist.extract",
	"check legal connections":        "core.stage.connections",
	"check interactions":             "core.stage.interactions",
	"check construction rules":       "core.stage.construction",
}

// stageChildren records the stage durations the checker reports as child
// spans of the check span, so the check span's self time is what runs
// outside any stage (hashing, dirty closure, sort, eviction).
func stageChildren(tr *tracer, check int, rep *core.Report) {
	if tr == nil {
		return
	}
	for _, st := range rep.Stats.Stages {
		if name, ok := stageSpans[st.Name]; ok {
			tr.child(name, check, st.Duration)
		}
	}
}

// encodeWire encodes a wire payload the way dicheckd's handlers and
// `dicheck -json` do: a two-space-indented JSON encoder.
func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// engineCounters accumulates Engine.Stats() over a pass.
type engineCounters struct {
	runs, windowEdits, windowPatched int
	sigHits, sigMisses               int
	interBuilt, interReused          int
	dirtySymbols                     int
	ctxHits, ctxMisses               int // see noteContexts
}

func (c *engineCounters) note(st core.EngineStats, class string) {
	c.runs++
	if class == classWindow {
		c.windowEdits++
		if st.WindowPatched {
			c.windowPatched++
		}
	}
	c.sigHits += st.SigHits
	c.sigMisses += st.SigMisses
	c.interBuilt += st.InterBuilt
	c.interReused += st.InterReused
	c.dirtySymbols += st.DirtySymbols
}

// noteContexts adds one engine's span-context counters, which the engine
// keeps cumulative over its lifetime; call it once per engine.
func (c *engineCounters) noteContexts(st core.EngineStats) {
	c.ctxHits += st.CtxHits
	c.ctxMisses += st.CtxMisses
}

func (c *engineCounters) metrics(m map[string]float64) {
	if c.runs == 0 {
		return
	}
	if c.windowEdits > 0 {
		m["core.window_patch_share"] = share(float64(c.windowPatched), float64(c.windowEdits))
	}
	m["core.sig_hit_share"] = share(float64(c.sigHits), float64(c.sigHits+c.sigMisses))
	m["core.inter_reuse_share"] = share(float64(c.interReused), float64(c.interReused+c.interBuilt))
	m["core.dirty_symbols_per_op"] = float64(c.dirtySymbols) / float64(c.runs)
	if c.ctxHits+c.ctxMisses > 0 {
		m["netlist.ctx_hit_share"] = share(float64(c.ctxHits), float64(c.ctxHits+c.ctxMisses))
	}
}

// replica is one in-process session. wire is the caller's cached report,
// prevVS the violation sequence behind its fingerprint — what the daemon's
// history ring holds for a polling client.
type replica struct {
	// served makes every engine run end the way a daemon session's does:
	// with the digest that files the new state in the delta history ring.
	served bool
	tc     *dic.Technology
	d      *layout.Design
	eng    *core.Engine
	rep    *core.Report
	wire   *server.Report
	prevVS []core.Violation
	cnt    *engineCounters
	// classMS receives each traced edit's recheck wall by class.
	classMS map[string][]float64
}

// newReplica is the create path: parse, resolve the technology, cold
// engine check.
func newReplica(tr *tracer, op, root int, in design, served bool, cnt *engineCounters) (*replica, error) {
	s := tr.begin("tech.resolve", op, root)
	tc, err := dic.ResolveTechnology(in.Tech, "")
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("cif.parse", op, root)
	d, err := cif.Parse(in.CIF, tc, in.Name)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	eng := dic.NewEngine(tc, dic.Options{})
	s = tr.begin("core.check", op, root)
	rep, err := eng.CheckContext(context.Background(), d)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	stageChildren(tr, s, rep)
	cnt.note(eng.Stats(), "")
	r := &replica{served: served, tc: tc, d: d, eng: eng, rep: rep, cnt: cnt, classMS: map[string][]float64{}}
	r.fileState(tr, op, root)
	return r, nil
}

// fileState is the digest a daemon session computes after each engine run
// to file the state in its history ring.
func (r *replica) fileState(tr *tracer, op, root int) {
	if !r.served {
		return
	}
	s := tr.begin("core.fingerprint", op, root)
	core.FingerprintDigest(r.rep)
	tr.end(s)
}

// edit applies one batch and rechecks.
func (r *replica) edit(tr *tracer, op, root int, edits []layout.Edit, class string) error {
	s := tr.begin("layout.apply_edit", op, root)
	_, err := layout.ApplyEdits(r.d, r.tc, edits)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.check", op, root)
	rep, err := r.eng.Recheck(r.d)
	tr.end(s)
	if err != nil {
		return err
	}
	r.rep = rep
	r.cnt.note(r.eng.Stats(), class)
	if tr != nil {
		stageChildren(tr, s, rep)
		r.classMS[class] = append(r.classMS[class], tr.ms(s))
	}
	r.fileState(tr, op, root)
	return nil
}

// report is one report request as the daemon and its client see it: build
// the full report or the delta against the caller's cached one (either
// digests the report once more for the envelope), encode, then decode and
// (for a delta) apply on the caller's side. It returns the encoded size.
func (r *replica) report(tr *tracer, op, root int, full bool) (int, error) {
	var payload any
	if full || r.wire == nil {
		full = true
		s := tr.begin("server.build_report", op, root)
		payload = server.BuildReport(r.rep, r.eng)
		tr.end(s)
	} else {
		s := tr.begin("server.build_delta", op, root)
		payload = server.BuildDelta(r.wire.Fingerprint, r.prevVS, r.rep, r.eng)
		tr.end(s)
	}
	s := tr.begin("server.encode", op, root)
	data, err := encodeWire(payload)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("server.decode_apply", op, root)
	var next *server.Report
	if full {
		next = new(server.Report)
		err = json.Unmarshal(data, next)
	} else {
		var dl server.ReportDelta
		if err = json.Unmarshal(data, &dl); err == nil {
			next, err = server.ApplyDelta(r.wire, &dl)
		}
	}
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("replica report: %w", err)
	}
	r.wire, r.prevVS = next, r.rep.Violations
	return len(data), nil
}
