package dic

// Kernel benchmarks: each isolates one per-layer metric of the bench/
// module's end-to-end workloads, named (as it appears in BENCHMARK.json's
// per_layer list) in its doc comment; TestBenchmarksNameMetric enforces
// that. Timings that a gate reads come from bash bench/run.sh; these are
// for profiling one kernel in isolation, e.g.
//
//	go test -run xxx -bench 'CheckCold|RecheckOneBox' -benchmem -cpuprofile cpu.out
//
// and go test -cpu 1,2 -bench CheckCold compares the serial engine with
// the pooled one (GOMAXPROCS sizes the pool).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// ---- Kernel benchmarks ------------------------------------------------

// BenchmarkRegionUnion times one rect-by-rect sweep of 1 000 overlapping
// rects into a region: geom.layer_union_ms.
func BenchmarkRegionUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rects := make([]geom.Rect, 1000)
	for i := range rects {
		x, y := int64(rng.Intn(50000)), int64(rng.Intn(50000))
		rects[i] = geom.R(x, y, x+int64(100+rng.Intn(2000)), y+int64(100+rng.Intn(2000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geom.FromRects(rects)
	}
}

// BenchmarkRegionBulkUnion tracks the k-way single-sweep combiner that
// geom.layer_union_ms times per layer, against the workload
// BenchmarkRegionUnion covers rect-by-rect: 16 overlapping 100-rect
// regions folded in one pass (each result costs its band list and span
// arena).
func BenchmarkRegionBulkUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	regs := make([]geom.Region, 16)
	for k := range regs {
		rects := make([]geom.Rect, 100)
		for i := range rects {
			x, y := int64(rng.Intn(20000)), int64(rng.Intn(20000))
			rects[i] = geom.R(x, y, x+int64(100+rng.Intn(1500)), y+int64(100+rng.Intn(1500)))
		}
		regs[k] = geom.FromRects(rects).Translate(geom.Point{X: int64(k) * 977, Y: int64(k) * 1493})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geom.BulkUnion(regs)
	}
}

// BenchmarkRegionErodeDilate times the morphological opening the width
// rules apply to every layer region (geom.MinWidthOK):
// core.stage.layer_rules_ms.
func BenchmarkRegionErodeDilate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	rects := make([]geom.Rect, 200)
	for i := range rects {
		x, y := int64(rng.Intn(20000)), int64(rng.Intn(20000))
		rects[i] = geom.R(x, y, x+int64(500+rng.Intn(2000)), y+int64(500+rng.Intn(2000)))
	}
	reg := geom.FromRects(rects)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Erode(250).Dilate(250)
	}
}

// BenchmarkNetlistExtraction times a one-shot hierarchical extraction of
// the 8×12 inverter array over a fresh cache: netlist.extract_ms.
func BenchmarkNetlistExtraction(b *testing.B) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "bench", 8, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := netlist.Extract(chip.Design, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCIFParse times reading a 4×5 chip's CIF text back into a
// design: cif.parse_ms, and its bytes per second cif.parse_mb_per_s.
func BenchmarkCIFParse(b *testing.B) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "bench", 4, 5)
	text, err := cif.Write(chip.Design, tc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cif.Parse(text, tc, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairFinder times the candidate-pair sweep over 5 000 scattered
// boxes: geom.pair_sweep_ms. As there, each iteration sweeps a fresh
// finder, so the sweep-order sort (cached after a finder's first Pairs
// call) is timed too.
func BenchmarkPairFinder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var pf geom.PairFinder
	for i := 0; i < 5000; i++ {
		x, y := int64(rng.Intn(200000)), int64(rng.Intn(200000))
		pf.AddRect(i, geom.R(x, y, x+1000, y+1000), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep := pf
		sweep.Pairs(750, nil, func(geom.Pair) {})
	}
}

// ---- Incremental engine benchmarks ------------------------------------

// recheckWorkload builds the unique-rows inverter-array chip used by the
// cold-vs-warm experiments, with one out-of-the-way metal probe box per
// row definition that the edit loop nudges (a single-symbol edit that
// keeps the chip clean and the design size constant). NewChipUnique's rows
// are twins, drawing the same thing under different names, which share
// every cached result; each row's probe sits at its own x, so the rows
// here are distinct definitions and a cold check pays for every one.
func recheckWorkload(rows, cols int) (*tech.Technology, *workload.Chip, []*layout.Symbol) {
	tc := tech.NMOS()
	chip := workload.NewChipUnique(tc, "incr", rows, cols)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	var rowSyms []*layout.Symbol
	for r := 0; ; r++ {
		s, ok := chip.Design.Symbol(fmt.Sprintf("row%d", r))
		if !ok {
			break
		}
		// Declared GND so the floating probe trips neither NET.FANOUT
		// (rails are exempt) nor any spacing cell; the resulting NET.OPEN
		// warning does not affect Clean().
		x := -15000 - 1000*int64(r)
		s.AddBox(metalL, geom.R(x, 0, x+750, 1000), "GND")
		rowSyms = append(rowSyms, s)
	}
	return tc, chip, rowSyms
}

// nudgeRow is the single-symbol edit: shift the row's probe box.
func nudgeRow(s *layout.Symbol, step int64) {
	e := s.Elements[len(s.Elements)-1]
	e.Box.Y1 += step
	e.Box.Y2 += step
	s.Touch()
}

// BenchmarkCheckCold measures a from-scratch engine run on the 32×32
// unique-rows chip with its 32 distinct row definitions: every definition
// artifact and interaction cache is built (core.cold_engine_ms). Compare
// with BenchmarkRecheckOneSymbol.
func BenchmarkCheckCold(b *testing.B) {
	tc, chip, _ := recheckWorkload(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.NewEngine(tc, core.Options{}).Check(chip.Design)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("chip not clean")
		}
	}
}

// BenchmarkCheckColdLarge is BenchmarkCheckCold at 64×64 (4096 cells,
// 64 distinct row definitions) — the scaling point of the cold-check curve
// (core.cold_engine_ms).
func BenchmarkCheckColdLarge(b *testing.B) {
	tc, chip, _ := recheckWorkload(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.NewEngine(tc, core.Options{}).Check(chip.Design)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("chip not clean")
		}
	}
}

// BenchmarkRecheckOneSymbol measures the warm edit loop on the same chip:
// one row definition is edited per iteration, then rechecked. Only the
// dirty row and the chip root re-derive; every other definition replays
// from the content-addressed caches (core.recheck_symbol_ms). The report
// is byte-identical to the cold run's (enforced by
// TestEngineRecheckByteIdentical).
func BenchmarkRecheckOneSymbol(b *testing.B) {
	tc, chip, rows := recheckWorkload(32, 32)
	eng := core.NewEngine(tc, core.Options{})
	if _, err := eng.Check(chip.Design); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every second visit of a row undoes the first, so no row drifts
		// into its neighbour however many iterations run.
		step := int64(250)
		if (i/len(rows))%2 == 1 {
			step = -step
		}
		nudgeRow(rows[i%len(rows)], step)
		rep, err := eng.Recheck(chip.Design)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("chip not clean")
		}
	}
}

// orientedWorkloads are reoriented variants of the 32×32 unique-rows
// chip, which no end-to-end workload reaches: every second row mirrored
// about its own axis, the whole chip under R90, and a 16×16 grid of
// NewOrientedBlocks placed under all eight orientations. The returned
// rows are the chip's row definitions (nil for the grid).
func orientedWorkloads() []struct {
	name string
	tc   *tech.Technology
	d    *layout.Design
	rows []*layout.Symbol
} {
	tc, mx, mxRows := recheckWorkload(32, 32)
	for i, c := range mx.Design.Top.Calls {
		if b := c.Target.Bounds(); i%2 == 1 {
			c.T = geom.NewTransform(geom.MX, geom.Pt(c.T.Trans.X, c.T.Trans.Y+b.Y1+b.Y2))
		}
	}
	mx.Design.Top.Touch()
	_, rot, rotRows := recheckWorkload(32, 32)
	wrap := rot.Design.MustSymbol("wrap")
	wrap.AddCall(rot.Design.Top, geom.NewTransform(geom.R90, geom.Pt(0, 0)), "w")
	rot.Design.Top = wrap
	blocks := workload.NewOrientedBlocks(tc)
	grid := blocks.MustSymbol("grid")
	for i := 0; i < 256; i++ {
		o := geom.Orient(i % 8)
		grid.AddCall(blocks.Top, geom.NewTransform(o, geom.Pt(int64(i%16)*60000, int64(i/16)*60000)), fmt.Sprintf("g%d", i))
	}
	blocks.Top = grid
	return []struct {
		name string
		tc   *tech.Technology
		d    *layout.Design
		rows []*layout.Symbol
	}{{"mirroredRows", tc, mx.Design, mxRows}, {"rotatedChip", tc, rot.Design, rotRows}, {"rotatedBlocks", tc, blocks, nil}}
}

// BenchmarkCheckColdOriented is BenchmarkCheckCold on the reoriented
// workloads: embeddings under a mirror or a rotation read their regions
// from their family's transformed column, not from the owner
// (core.cold_engine_ms).
func BenchmarkCheckColdOriented(b *testing.B) {
	for _, w := range orientedWorkloads() {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewEngine(w.tc, core.Options{}).Check(w.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecheckOriented is BenchmarkRecheckOneSymbol on the reoriented
// chips: each edited row re-derives its family, the chip root (and the
// rotated wrapper) again (core.recheck_symbol_ms).
func BenchmarkRecheckOriented(b *testing.B) {
	for _, w := range orientedWorkloads() {
		if w.rows == nil {
			continue
		}
		b.Run(w.name, func(b *testing.B) {
			eng := core.NewEngine(w.tc, core.Options{})
			if _, err := eng.Check(w.d); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step := int64(250)
				if (i/len(w.rows))%2 == 1 {
					step = -step
				}
				nudgeRow(w.rows[i%len(w.rows)], step)
				if _, err := eng.Recheck(w.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckColdArray measures a from-scratch engine run on the
// uniform 64×64 array chip: one shared row definition instanced 64 times
// (4096 cells total). The instance-context dedup makes this far cheaper
// per instance than the unique-rows BenchmarkCheckColdLarge — all 64 row
// placements share one translation class, so the row's span embedding is
// built once and derived 63 times by pure coordinate translation
// (core.cold_engine_ms).
func BenchmarkCheckColdArray(b *testing.B) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "arr", 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.NewEngine(tc, core.Options{}).Check(chip.Design)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("chip not clean")
		}
	}
}

// BenchmarkRecheckOneBox measures the windowed recheck: the uniform 64×64
// array plus one isolated anonymous probe box at top level, moved via
// layout.ApplyEdit each iteration. The move is window-scoped (TouchElement)
// and electrically inert, so extraction patches the previous root in place
// and the interaction stage replays its recorded result — recheck cost is
// bounded by the edit, not the chip. The anonymous probe floats, so the
// expected report is exactly its one NET.FANOUT error (asserted; parity
// with the cold oracle is enforced by TestEngineWindowRecheckParity).
// This is core.recheck_window_ms.
func BenchmarkRecheckOneBox(b *testing.B) {
	tc := tech.NMOS()
	benchRecheckOneBox(b, tc, workload.NewChip(tc, "arr", 64, 64))
}

// BenchmarkRecheckOneBoxUnique is the same probe move on the 64×64
// unique-row chip: 72 symbols and some 4 200 call sites where the uniform
// array has about 130, so any per-run walk of the call graph around the
// patch (hashing, validation, ordering, cache ageing) shows here and not
// above (core.recheck_window_ms). Its 64 rows are twins that share one
// artifact, as the walk does not care.
func BenchmarkRecheckOneBoxUnique(b *testing.B) {
	tc := tech.NMOS()
	benchRecheckOneBox(b, tc, workload.NewChipUnique(tc, "uniq", 64, 64))
}

func benchRecheckOneBox(b *testing.B, tc *tech.Technology, chip *workload.Chip) {
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	top := chip.Design.Top
	top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")
	eng := core.NewEngine(tc, core.Options{})
	rep, err := eng.Check(chip.Design)
	if err != nil {
		b.Fatal(err)
	}
	if n := len(rep.Violations); n != 1 {
		b.Fatalf("expected exactly the probe's fanout error, got %d violations", n)
	}
	dy := int64(250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layout.ApplyEdit(chip.Design, tc, layout.Edit{
			Op: layout.OpMoveElement, Symbol: top.Name, Index: -1, DY: dy,
		}); err != nil {
			b.Fatal(err)
		}
		dy = -dy
		rep, err := eng.Recheck(chip.Design)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(rep.Violations); n != 1 {
			b.Fatalf("expected exactly the probe's fanout error, got %d violations", n)
		}
	}
	b.StopTimer()
	if !eng.Stats().WindowPatched {
		b.Fatal("window patch path did not engage")
	}
}

// BenchmarkRecheckActive measures the full (non-patched) warm re-derive on
// the 64×64 unique-row chip plus probe box, under the three electrically
// active edit shapes of the edit-loop workload — each changes the net
// partition, so anonymous nets renumber and no window patch can answer:
//
//   - symbol: the head poly wire of one row definition moves ±250 (breaks
//     and heals a skeletal connection inside a called definition);
//   - struct: a floating metal sliver is added to / deleted from the top;
//   - call: one row call moves ∓250 (opens and closes the GND rail).
//
// One iteration is one edit plus one Recheck; the root and (for symbol)
// one row re-derive, every other definition replays from the caches. The
// rows are twins, as in the edit-loop workload: a symbol edit parts one
// row from the 63 others, and its undo returns it to their shared
// artifact. The symbol shape is core.recheck_symbol_ms, struct and call
// are core.recheck_struct_ms.
func BenchmarkRecheckActive(b *testing.B) {
	for _, shape := range []struct {
		name string
		edit func(i int, top string) layout.Edit
	}{
		{"symbol", func(i int, _ string) layout.Edit {
			return layout.Edit{Op: layout.OpMoveElement, Symbol: fmt.Sprintf("row%d", (i/2)%64), Index: 0, DY: 250 - 500*int64(i%2)}
		}},
		{"struct", func(i int, top string) layout.Edit {
			if i%2 == 1 {
				return layout.Edit{Op: layout.OpDeleteElement, Symbol: top, Index: -1}
			}
			return layout.Edit{Op: layout.OpAddBox, Symbol: top, Layer: tech.NMOSMetal, Box: []int64{-42000, -20000, -41750, -17500}}
		}},
		{"call", func(i int, top string) layout.Edit {
			return layout.Edit{Op: layout.OpMoveCall, Symbol: top, Index: (i / 2) % 64, DX: -250 + 500*int64(i%2)}
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			tc := tech.NMOS()
			chip := workload.NewChipUnique(tc, "uniq", 64, 64)
			metalL, _ := tc.LayerByName(tech.NMOSMetal)
			chip.Design.Top.AddBox(metalL, geom.R(-30000, 0, -28000, 2000), "")
			eng := core.NewEngine(tc, core.Options{})
			if _, err := eng.Check(chip.Design); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := layout.ApplyEdit(chip.Design, tc, shape.edit(i, chip.Design.Top.Name)); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Recheck(chip.Design); err != nil {
					b.Fatal(err)
				}
				if eng.Stats().WindowPatched {
					b.Fatal("an active edit took the window patch")
				}
			}
		})
	}
}

// BenchmarkFingerprintDigest measures the per-run report digest the check
// service pays once per engine run (core.fingerprint_ms), on the two report shapes the
// benchmark's served workloads hold resident: an 8×8 CMOS array session
// and a 24×24 unique-rows nMOS chip. The digest streams into the hash, so
// allocs/op must not scale with the netlist (TestFingerprintDigestAllocs
// is the hard guard). The first two cases digest one report over and over,
// which streams every device line each time: a netlist on its own never
// memoises them. cmos8x8Patched is what a served-poll session pays: each
// report is a window-patched successor (probe moved) sharing the first
// one's device array, so its device lines are hashed from the memo.
// nmosUnique24x24Once is what a one-shot check pays: a netlist with no
// memo at all, the only digest of a fresh extraction.
func BenchmarkFingerprintDigest(b *testing.B) {
	cm, nm := tech.CMOS(), tech.NMOS()
	digest := func(b *testing.B, reps ...*core.Report) {
		b.ReportAllocs()
		b.SetBytes(int64(len(core.Fingerprint(reps[0]))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(core.FingerprintDigest(reps[i%len(reps)])) != 64 {
				b.Fatal("digest is not a sha256 hex string")
			}
		}
	}
	for _, c := range []struct {
		name string
		tc   *tech.Technology
		d    *layout.Design
	}{
		{"cmos8x8", cm, workload.NewCMOSChip(cm, "cmos", 8, 8).Design},
		{"nmosUnique24x24", nm, workload.NewChipUnique(nm, "unique", 24, 24).Design},
	} {
		rep, err := core.Check(c.d, c.tc, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) { digest(b, rep) })
	}

	b.Run("cmos8x8Patched", func(b *testing.B) {
		d := workload.NewCMOSChip(cm, "poll", 8, 8).Design
		metalL, _ := cm.LayerByName(tech.CMOSMetal)
		for j := int64(0); j < 20; j++ { // the served-poll slivers, then its probe
			d.Top.AddBox(metalL, geom.R(-30000, -20000-5000*j, -29900, -19000-5000*j), "")
		}
		d.Top.AddBox(metalL, geom.R(-30000, 0, -29000, 1000), "")
		eng := core.NewEngine(cm, core.Options{})
		if _, err := eng.Check(d); err != nil {
			b.Fatal(err)
		}
		reps := make([]*core.Report, 16)
		for i := range reps {
			dy := int64(300 - 600*(i%2))
			if err := layout.ApplyEdit(d, cm, layout.Edit{Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: dy}); err != nil {
				b.Fatal(err)
			}
			rep, err := eng.Recheck(d)
			if err != nil {
				b.Fatal(err)
			}
			if !eng.Stats().WindowPatched {
				b.Fatal("probe move was not window-patched")
			}
			reps[i] = rep
		}
		digest(b, reps...)
	})

	b.Run("nmosUnique24x24Once", func(b *testing.B) {
		rep, err := core.Check(workload.NewChipUnique(nm, "unique", 24, 24).Design, nm, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// A netlist built by hand has no memo: every digest of it streams,
		// as the only digest of an extracted netlist does.
		once := *rep
		once.Netlist = &netlist.Netlist{Nets: rep.Netlist.Nets, Devices: rep.Netlist.Devices}
		digest(b, &once)
	})
}
