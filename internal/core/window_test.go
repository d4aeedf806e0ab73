package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// TestEngineWindowRecheckParity locks the windowed recheck: after any
// window-scoped edit (layout.ApplyEdit move_element), a warm Recheck must
// agree with the spec and fingerprint-match a cold engine on the same
// design state, whether the patch fast path engaged or refused. The
// WindowPatched stat pins down which path ran, so the fast path cannot
// silently stop engaging.
func TestEngineWindowRecheckParity(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChip(nm, "win", 6, 6)
	d := chip.Design
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	top := d.Top
	// Two isolated anonymous probes west of the array; their moves are
	// the patchable edits (each is the sole member of an anonymous net).
	top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")
	top.AddBox(metalL, geom.R(-20000, 4000, -19250, 5000), "")
	probeA, probeB := len(top.Elements)-2, len(top.Elements)-1
	// An anonymous diffusion probe above another net's diffusion: related
	// diffusion pairs are exempt, so moving the probe into spacing makes the
	// patch ask the net facts whether the two nets share a device.
	diffL, _ := nm.LayerByName(tech.NMOSDiff)
	top.AddBox(diffL, geom.R(-20000, -12000, -18000, -11500), "")
	top.AddBox(diffL, geom.R(-20000, -9000, -18000, -8500), "")
	probeD := len(top.Elements) - 1

	eng := NewEngine(nm, Options{Workers: 1})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}

	move := func(idx int, dx, dy int64) {
		t.Helper()
		if err := layout.ApplyEdit(d, nm, layout.Edit{
			Op: layout.OpMoveElement, Symbol: top.Name, Index: idx, DX: dx, DY: dy,
		}); err != nil {
			t.Fatal(err)
		}
	}
	verify := func(label string, wantPatched bool) {
		t.Helper()
		warm, err := eng.Recheck(d)
		if err != nil {
			t.Fatalf("%s: recheck: %v", label, err)
		}
		if got := eng.Stats().WindowPatched; got != wantPatched {
			t.Fatalf("%s: WindowPatched = %v, want %v", label, got, wantPatched)
		}
		requireSpec(t, label, warm, specCheck(d, nm, Options{}))
		cold, err := NewEngine(nm, Options{Workers: 1}).Check(d)
		if err != nil {
			t.Fatalf("%s: cold: %v", label, err)
		}
		requireSameReport(t, label+" warm vs cold", warm, cold)
	}

	// Nominal: one isolated move patches the root in place.
	move(probeA, 0, 250)
	verify("one-box move", true)

	// Two moves batched between rechecks: a multi-item patch.
	move(probeA, 0, -250)
	move(probeB, 500, 0)
	verify("two-box batch", true)

	// An unchanged design replays the previous run verbatim.
	verify("no-edit replay", true)

	// The diffusion probe 500 from the other net's diffusion (the rule is
	// 750), then back out of reach.
	move(probeD, 0, -2000)
	verify("diffusion probe into spacing", true)
	move(probeD, 0, 2000)
	verify("diffusion probe out of spacing", true)

	// Moving a declared-net element (the VDD trunk) is window-scoped but
	// not electrically inert: the patch must refuse and the full path
	// take over, still matching the oracle.
	move(0, 250, 0)
	verify("rail move refuses patch", false)
	move(0, -250, 0)
	verify("rail move back refuses patch", false)

	// The full run re-records the replay state, so patching recovers.
	move(probeA, 0, 250)
	verify("patch recovers after refusal", true)

	// Structural edits (add + delete) degrade to full dirtiness.
	move(probeA, 0, -250)
	top.AddBox(metalL, geom.R(-25000, 0, -24250, 1000), "")
	verify("structural edit refuses patch", false)
	if err := layout.ApplyEdit(d, nm, layout.Edit{
		Op: layout.OpDeleteElement, Symbol: top.Name, Index: -1,
	}); err != nil {
		t.Fatal(err)
	}
	verify("delete refuses patch", false)

	// Randomized drift: repeated small window-scoped moves must keep the
	// patch engaged and the report oracle-identical at every step.
	rng := rand.New(rand.NewSource(1980))
	steps := 10
	if testing.Short() {
		steps = 3
	}
	for i := 0; i < steps; i++ {
		dy := rng.Int63n(501) - 250
		move(probeA, 0, dy)
		verify(fmt.Sprintf("drift step %d (dy %d)", i, dy), true)
	}
}

// expiringContext is live for a fixed number of the engine's stage
// boundaries (one Err call each) and canceled from the next one on.
type expiringContext struct {
	context.Context
	boundaries int
}

func (c *expiringContext) Err() error {
	if c.boundaries > 0 {
		c.boundaries--
		return nil
	}
	return context.Canceled
}

// TestEngineWindowRecheckInterleavedChecks: a symbol's edit record is shared
// by every consumer of the design, so the window patch may trust it only
// while it still covers every edit since this engine's own last completed
// run. Whatever runs between two rechecks — a one-shot Check, another
// engine, the engine's own aborted run — the warm report must stay
// cold-identical; a lost edit shows up here as the missing spacing error
// between the two probes. Once a full run has caught up, the patch must
// engage again.
func TestEngineWindowRecheckInterleavedChecks(t *testing.T) {
	nm := tech.NMOS()
	abort := func(t *testing.T, eng *Engine, d *layout.Design) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expires ahead of the first stage boundary
		if _, err := eng.RecheckContext(ctx, d); !errors.Is(err, context.Canceled) {
			t.Fatalf("aborted run: err = %v, want context.Canceled", err)
		}
	}
	cases := []struct {
		name string
		// rowEdit also edits a called definition before the interleaved
		// run: dirtiness outside the top must survive it too.
		rowEdit    bool
		interleave func(t *testing.T, eng *Engine, d *layout.Design)
	}{
		{"one-shot Check", false, func(t *testing.T, _ *Engine, d *layout.Design) {
			if _, err := Check(d, nm, Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}},
		{"another Engine", false, func(t *testing.T, _ *Engine, d *layout.Design) {
			if _, err := NewEngine(nm, Options{Workers: 1}).Check(d); err != nil {
				t.Fatal(err)
			}
		}},
		{"own aborted run", false, abort},
		{"own aborted run after a row edit", true, abort},
		// The extraction cache's baseline advances inside the run, the
		// engine's only when the run completes: a child edited for a run
		// that dies after extracting, then restored, is clean to the engine
		// while the cached root still embeds the edited child.
		{"own run aborted after extraction, child edit undone", false, func(t *testing.T, eng *Engine, d *layout.Design) {
			metalL, _ := nm.LayerByName(tech.NMOSMetal)
			row, ok := d.Symbol("row")
			if !ok {
				t.Fatal("row missing")
			}
			// 50 apart: a spacing error in every instance of row.
			row.AddBox(metalL, geom.R(-5000, 0, -4250, 1000), "")
			row.AddBox(metalL, geom.R(-5800, 0, -5050, 1000), "")
			ctx := &expiringContext{Context: context.Background(), boundaries: 4}
			if _, err := eng.RecheckContext(ctx, d); !errors.Is(err, context.Canceled) {
				t.Fatalf("aborted run: err = %v, want context.Canceled", err)
			}
			for i := 0; i < 2; i++ {
				if err := layout.ApplyEdit(d, nm, layout.Edit{Op: layout.OpDeleteElement, Symbol: "row", Index: -1}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tcse := range cases {
		t.Run(tcse.name, func(t *testing.T) {
			d := workload.NewChip(nm, "interleave", 6, 6).Design
			metalL, _ := nm.LayerByName(tech.NMOSMetal)
			top := d.Top
			top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")
			top.AddBox(metalL, geom.R(-20000, 4000, -19250, 5000), "")
			probeA, probeB := len(top.Elements)-2, len(top.Elements)-1

			eng := NewEngine(nm, Options{Workers: 1})
			if _, err := eng.Check(d); err != nil {
				t.Fatal(err)
			}
			move := func(idx int, dx, dy int64) {
				t.Helper()
				if err := layout.ApplyEdit(d, nm, layout.Edit{
					Op: layout.OpMoveElement, Symbol: top.Name, Index: idx, DX: dx, DY: dy,
				}); err != nil {
					t.Fatal(err)
				}
			}
			verify := func(label string) {
				t.Helper()
				warm, err := eng.Recheck(d)
				if err != nil {
					t.Fatalf("%s: recheck: %v", label, err)
				}
				cold, err := NewEngine(nm, Options{Workers: 1}).Check(d)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				requireSameReport(t, label+" warm vs cold", warm, cold)
			}

			// A lands 50 west of B: a metal spacing error between the two.
			move(probeA, -4200, 4000)
			if tcse.rowEdit {
				row, ok := d.Symbol("row")
				if !ok {
					t.Fatal("row missing")
				}
				row.AddBox(metalL, geom.R(-5000, 0, -4250, 1000), "")
			}
			tcse.interleave(t, eng, d)
			move(probeB, 0, 250)
			verify("move after the interleaved run")

			move(probeB, 0, -250)
			verify("following clean move")
			if !eng.Stats().WindowPatched {
				t.Fatal("window patch did not re-engage on the following clean move")
			}
		})
	}
}

// TestEngineWindowRecheckOtherSymbolFullPath: a window-scoped edit inside
// a non-top symbol dirties the whole subtree chain, so the windowed patch
// must not engage — and the warm result still matches the oracle.
func TestEngineWindowRecheckOtherSymbolFullPath(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChipUnique(nm, "winrow", 4, 4)
	d := chip.Design
	row, ok := d.Symbol("row2")
	if !ok {
		t.Fatal("row2 missing")
	}
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	row.AddBox(metalL, geom.R(-5000, 0, -4250, 1000), "")

	eng := NewEngine(nm, Options{Workers: 1})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}
	if err := layout.ApplyEdit(d, nm, layout.Edit{
		Op: layout.OpMoveElement, Symbol: "row2", Index: -1, DY: 250,
	}); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Recheck(d)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().WindowPatched {
		t.Fatal("patch engaged for a non-top edit")
	}
	cold, err := NewEngine(nm, Options{Workers: 1}).Check(d)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "row edit warm vs cold", warm, cold)
}

// TestNetFactsSharesLongPairs pins the memo of netFacts.shares on a
// hand-built netlist whose four nets all carry more than longScan terminals:
// x shares devices with y1 and z, y2 only with z. Every ordered pair is asked
// in every sequence of first questions, so an answer memoised for one pair
// can never stand in for another.
func TestNetFactsSharesLongPairs(t *testing.T) {
	const x, y1, y2, z = netlist.NetID(0), netlist.NetID(1), netlist.NetID(2), netlist.NetID(3)
	nl := &netlist.Netlist{Nets: make([]netlist.Net, 4)}
	join := func(n int, a, b netlist.NetID) {
		for i := 0; i < n; i++ {
			di := len(nl.Devices)
			nl.Devices = append(nl.Devices, netlist.DeviceUse{TerminalNets: []netlist.TerminalNet{{Name: "a", Net: a}, {Name: "b", Net: b}}})
			nl.Nets[a].Terminals = append(nl.Nets[a].Terminals, netlist.TermRef{Device: di, Terminal: "a"})
			nl.Nets[b].Terminals = append(nl.Nets[b].Terminals, netlist.TermRef{Device: di, Terminal: "b"})
		}
	}
	join(longScan+4, x, y1)
	join(longScan+8, x, z)
	join(longScan+1, y2, z)
	want := map[[2]netlist.NetID]bool{
		{x, y1}: true, {x, y2}: false, {x, z}: true,
		{y1, y2}: false, {y1, z}: false, {y2, z}: true,
	}
	var asks [][2]netlist.NetID
	for p := range want {
		asks = append(asks, p, [2]netlist.NetID{p[1], p[0]})
	}
	sort.Slice(asks, func(i, j int) bool {
		return asks[i][0] < asks[j][0] || asks[i][0] == asks[j][0] && asks[i][1] < asks[j][1]
	})
	for first := range asks {
		facts := newNetFacts(nl)
		for k := range asks {
			q := asks[(first+k)%len(asks)]
			lo, hi := q[0], q[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			if got := facts.shares(q[0], q[1]); got != want[[2]netlist.NetID{lo, hi}] {
				t.Fatalf("sequence from %v: shares(%d,%d) = %v", asks[first], q[0], q[1], got)
			}
		}
		if len(facts.long) != len(want) {
			t.Fatalf("memo holds %d pairs, want %d", len(facts.long), len(want))
		}
	}
}

// TestNetEnvSignatureTalliesIdentical pins the signature cache's core
// guarantee: the signature bytes are deterministic, and two instances
// with equal signatures adjudicate to byte-identical tallies — same
// violations, same counters — so replaying one tally for both is sound.
func TestNetEnvSignatureTalliesIdentical(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChip(nm, "sigdet", 4, 5)
	inc, _, err := netlist.ExtractIncremental(chip.Design, nm, netlist.NewCache(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nm, Options{Workers: 1})
	maxGap := e.ct.MaxSpacing()

	// The global net facts checkInteractions computes, checked against the
	// relation spelled out device by device.
	nl := inc.Netlist
	facts := newNetFacts(nl)
	shared := make(map[uint64]bool)
	var netBuf []netlist.NetID
	for di := range nl.Devices {
		netBuf = nl.Devices[di].TerminalNetIDs(netBuf[:0])
		for i := 0; i < len(netBuf); i++ {
			for j := i + 1; j < len(netBuf); j++ {
				lo, hi := netBuf[i], netBuf[j]
				if lo > hi {
					lo, hi = hi, lo
				}
				shared[uint64(lo)<<32|uint64(uint32(hi))] = true
			}
		}
	}
	for a := range nl.Nets {
		if facts.hasDev[a] != (len(nl.Nets[a].Terminals) > 0) {
			t.Fatalf("net %d: hasDev %v", a, facts.hasDev[a])
		}
		for b := a + 1; b < len(nl.Nets); b++ {
			want := shared[uint64(a)<<32|uint64(b)]
			na, nb := netlist.NetID(a), netlist.NetID(b)
			if facts.shares(na, nb) != want || facts.shares(nb, na) != want {
				t.Fatalf("nets %d,%d: shares %v/%v, want %v", a, b, facts.shares(na, nb), facts.shares(nb, na), want)
			}
		}
	}
	if len(facts.long) == 0 {
		t.Fatal("no pair took the memoised long scan; workload too small to exercise it")
	}
	scratch := &sigScratch{
		labelOf:   make([]int, len(nl.Nets)),
		labelSeen: make([]uint32, len(nl.Nets)),
	}

	type obs struct {
		tally *interactionTally
		inst  int
	}
	stats := &EngineStats{}
	bySig := make(map[string][]obs)
	for ii := range inc.Instances {
		art := inc.Instances[ii].Art
		di := e.defInterFor(art, maxGap, stats)
		if len(di.pairs) == 0 || di.netFree {
			continue
		}
		sig := string(e.netEnvSignature(di, inc, ii, facts, scratch))
		labels := append([]int(nil), scratch.labels...)
		again := string(e.netEnvSignature(di, inc, ii, facts, scratch))
		if sig != again {
			t.Fatalf("instance %d: signature not deterministic", ii)
		}
		// Adjudicate independently per instance (bypassing the tally
		// cache) so equality below is a real statement about signatures.
		tally := e.adjudicateDef(di, labels, []byte(sig))
		key := fmt.Sprintf("%p/%x", art, sig)
		bySig[key] = append(bySig[key], obs{tally: tally, inst: ii})
	}
	groups := 0
	for key, list := range bySig {
		if len(list) < 2 {
			continue
		}
		groups++
		for _, o := range list[1:] {
			if !reflect.DeepEqual(list[0].tally, o.tally) {
				t.Fatalf("%s: instances %d and %d share a signature but adjudicated differently:\n%+v\nvs\n%+v",
					key, list[0].inst, o.inst, list[0].tally, o.tally)
			}
		}
	}
	if groups == 0 {
		t.Fatal("no shared signatures observed; workload too small to exercise tally replay")
	}
}

// TestWindowRecheckAllocsBounded guards the steady-state allocation count
// of the patched recheck loop — the sub-millisecond path must not regress
// into per-instance or per-item allocation.
func TestWindowRecheckAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	nm := tech.NMOS()
	chip := workload.NewChip(nm, "winalloc", 16, 16)
	d := chip.Design
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	d.Top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")
	eng := NewEngine(nm, Options{Workers: 1})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}
	dy := int64(250)
	allocs := testing.AllocsPerRun(20, func() {
		if err := layout.ApplyEdit(d, nm, layout.Edit{
			Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: dy,
		}); err != nil {
			t.Fatal(err)
		}
		dy = -dy
		if _, err := eng.Recheck(d); err != nil {
			t.Fatal(err)
		}
	})
	if !eng.Stats().WindowPatched {
		t.Fatal("window patch path did not engage")
	}
	const maxAllocs = 32 // measured 26, +20 %
	if allocs > maxAllocs {
		t.Fatalf("patched recheck allocates %.0f objects per run, want <= %d", allocs, maxAllocs)
	}
}

// TestWindowRecheckWorkIsScaleFree pins the shape of the patched run's
// bookkeeping: moving the top-level probe of a unique-row chip re-hashes
// the top symbol and nothing else, and allocates the same on a chip
// sixteen times the size — no walk of the call sites or the instances
// hides around the patch. (Time still carries PR 22's copy of the net
// table, which is why this counts objects, not nanoseconds.)
func TestWindowRecheckWorkIsScaleFree(t *testing.T) {
	nm := tech.NMOS()
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	measure := func(n int) float64 {
		d := workload.NewChipUnique(nm, fmt.Sprintf("scale%d", n), n, n).Design
		d.Top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")
		eng := NewEngine(nm, Options{Workers: 1})
		if _, err := eng.Check(d); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Rehashed != st.Symbols || st.DirtySymbols != st.Symbols {
			t.Fatalf("%dx%d cold run: %d re-hashed, %d dirty of %d symbols", n, n, st.Rehashed, st.DirtySymbols, st.Symbols)
		}
		dy := int64(250)
		allocs := testing.AllocsPerRun(20, func() {
			if err := layout.ApplyEdit(d, nm, layout.Edit{
				Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: dy,
			}); err != nil {
				t.Fatal(err)
			}
			dy = -dy
			if _, err := eng.Recheck(d); err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); st.Rehashed != 1 || st.DirtySymbols != 1 || !st.WindowPatched {
				t.Fatalf("%dx%d probe move: %d re-hashed, %d dirty, patched %v; want 1, 1, true",
					n, n, st.Rehashed, st.DirtySymbols, st.WindowPatched)
			}
		})
		if _, err := eng.Recheck(d); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Rehashed != 0 || st.DirtySymbols != 0 || !st.WindowPatched {
			t.Fatalf("%dx%d no-edit run: %d re-hashed, %d dirty, patched %v; want 0, 0, true",
				n, n, st.Rehashed, st.DirtySymbols, st.WindowPatched)
		}
		return allocs
	}
	small, large := measure(8), measure(32)
	if raceEnabled {
		return // race instrumentation allocates; the counts above still hold
	}
	if diff := large - small; diff > 0.1*small || diff < -0.1*small {
		t.Fatalf("patched recheck allocates %.0f objects on 8x8 and %.0f on 32x32: not scale-free", small, large)
	}
}

// TestReportStableAcrossWindowPatch locks the Cache contract that a
// returned report is never rewritten by a later run: the window patch
// reuses the previous extraction, so it must move the patched net's bounds
// on a copy of the netlist, not on the one the previous report points at.
func TestReportStableAcrossWindowPatch(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChip(nm, "stable", 6, 6)
	d := chip.Design
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	d.Top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")

	eng := NewEngine(nm, Options{Workers: 1})
	r1, err := eng.Check(d)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := Fingerprint(r1)
	for step := 1; step <= 3; step++ {
		if err := layout.ApplyEdit(d, nm, layout.Edit{
			Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: 250,
		}); err != nil {
			t.Fatal(err)
		}
		r2, err := eng.Recheck(d)
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Stats().WindowPatched {
			t.Fatalf("step %d: window patch path did not engage", step)
		}
		if Fingerprint(r2) == fp1 {
			t.Fatalf("step %d: the move did not change the report", step)
		}
		if Fingerprint(r1) != fp1 {
			t.Fatalf("step %d: the first run's report changed under its holder", step)
		}
	}
}
