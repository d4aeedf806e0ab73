package main

// The two in-process workloads: what a `dicheck FILE.cif -json` caller
// and a library edit session wait for, with no wire in the way.

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"

	dic "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
)

// resetPeak makes this process's VmHWM start again from its current RSS
// (clear_refs "5"), so that an in-process instance's peak is its own and
// not that of whatever ran earlier in the process.
func resetPeak() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// batchCold is `dicheck FILE.cif -json` in a loop: parse, one-shot check,
// wire projection, encode, rotating over four texts.
type batchCold struct {
	seed int64
	in   []design
	tc   *dic.Technology
	next int
	last []*core.Report // latest report per text, for verify
}

func (w *batchCold) clients() int        { return 1 }
func (w *batchCold) pid() int            { return os.Getpid() }
func (w *batchCold) probeDesign() design { return w.in[0] }
func (w *batchCold) teardown()           { *w = batchCold{seed: w.seed} }

func (w *batchCold) setup(ctx context.Context) error {
	if err := resetPeak(); err != nil {
		return err
	}
	in, err := batchColdInputs(w.seed)
	if err != nil {
		return err
	}
	tc, err := dic.ResolveTechnology(in[0].Tech, "")
	if err != nil {
		return err
	}
	*w = batchCold{seed: w.seed, in: in, tc: tc, last: make([]*core.Report, len(in))}
	for range in { // warm-up: one op per text
		if r := w.op(ctx, 0, nil); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (w *batchCold) op(_ context.Context, _ int, tr *tracer) opResult {
	i := w.next
	w.next++
	root := tr.begin("op", i, -1)
	n, err := w.step(tr, i, root)
	tr.end(root)
	return opResult{wire: n, err: err}
}

func (w *batchCold) step(tr *tracer, i, root int) (int, error) {
	in := w.in[i%len(w.in)]
	s := tr.begin("cif.parse", i, root)
	d, err := dic.ParseCIF(in.CIF, w.tc, in.Name)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("core.check", i, root)
	rep, err := dic.Check(d, w.tc, dic.Options{})
	tr.end(s)
	if err != nil {
		return 0, err
	}
	stageChildren(tr, s, rep)
	s = tr.begin("server.build_report", i, root)
	wire := server.BuildReport(rep, nil)
	tr.end(s)
	s = tr.begin("server.encode", i, root)
	out, err := encodeWire(wire)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	w.last[i%len(w.in)] = rep
	return len(out), nil
}

// verify scores each text's verdict against its injected ground truth and
// against a fresh engine's check of the same design.
func (w *batchCold) verify(context.Context) (verdict, error) {
	var v verdict
	for i, in := range w.in {
		rep := w.last[i]
		if out := eval.ScoreDIC(in.Truth, rep); out.Missed != 0 {
			return v, fmt.Errorf("batch-cold: text %d: %d of %d injected errors missed", i, out.Missed, out.Injected)
		}
		fp := core.FingerprintDigest(rep)
		d, err := dic.ParseCIF(in.CIF, w.tc, in.Name)
		if err != nil {
			return v, err
		}
		cold, err := dic.NewEngine(w.tc, dic.Options{}).Check(d)
		if err != nil {
			return v, err
		}
		if got := core.FingerprintDigest(cold); got != fp {
			return v, fmt.Errorf("batch-cold: text %d: one-shot check %s differs from fresh engine %s", i, fp, got)
		}
		v.add(fp, len(rep.Violations))
	}
	return v, nil
}

// editLoop is the library's iterate-edit-recheck session on one big chip.
type editLoop struct {
	seed   int64
	in     design
	script []scriptOp
	r      *replica
	start  string // fingerprint of the unedited design
	next   int
	cnt    engineCounters
}

func (w *editLoop) clients() int        { return 1 }
func (w *editLoop) pid() int            { return os.Getpid() }
func (w *editLoop) probeDesign() design { return w.in }
func (w *editLoop) teardown()           { *w = editLoop{seed: w.seed} }

const (
	// editWarmup is how many script ops setup runs before the clock starts.
	editWarmup = 40
	// parityEvery: every so many traced ops the warm report is checked
	// against a cold one, outside the op's span.
	parityEvery = 64
)

func (w *editLoop) setup(ctx context.Context) error {
	if err := resetPeak(); err != nil {
		return err
	}
	in, script, err := editLoopInputs(w.seed, editRows)
	if err != nil {
		return err
	}
	*w = editLoop{seed: w.seed, in: in, script: script}
	if w.r, err = newReplica(nil, 0, -1, in, false, &w.cnt); err != nil {
		return err
	}
	w.start = core.FingerprintDigest(w.r.rep)
	for i := 0; i < editWarmup; i++ {
		if r := w.op(ctx, 0, nil); r.err != nil {
			return r.err
		}
	}
	w.cnt = engineCounters{}
	return nil
}

func (w *editLoop) op(_ context.Context, _ int, tr *tracer) opResult {
	i := w.next
	w.next++
	step := w.script[i%len(w.script)]
	root := tr.begin("op", i, -1)
	err := w.r.edit(tr, i, root, step.Edits, step.Class)
	tr.end(root)
	if err == nil && tr != nil && i%parityEvery == 0 {
		err = w.coldParity()
	}
	return opResult{err: err}
}

// coldParity checks the warm report against a fresh engine's cold check
// of the design as it stands.
func (w *editLoop) coldParity() error {
	cold, err := dic.NewEngine(w.r.tc, dic.Options{}).Check(w.r.d)
	if err != nil {
		return err
	}
	if warm, want := core.FingerprintDigest(w.r.rep), core.FingerprintDigest(cold); warm != want {
		return fmt.Errorf("edit-loop: after %d ops warm report %s differs from cold check %s", w.next, warm, want)
	}
	return nil
}

// verify checks warm-versus-cold parity where the clock stopped, then
// finishes the script cycle and expects the starting fingerprint back.
func (w *editLoop) verify(ctx context.Context) (verdict, error) {
	var v verdict
	if err := w.coldParity(); err != nil {
		return v, err
	}
	for w.next%len(w.script) != 0 {
		if r := w.op(ctx, 0, nil); r.err != nil {
			return v, r.err
		}
	}
	fp := core.FingerprintDigest(w.r.rep)
	if fp != w.start {
		return v, fmt.Errorf("edit-loop: completed cycle ends at %s, started at %s", fp, w.start)
	}
	v.add(fp, len(w.r.rep.Violations))
	return v, nil
}
