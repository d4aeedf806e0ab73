package dic

// One benchmark per experiment (E01..E16; internal/eval/experiments.go,
// where each E.. function's doc names its figure), plus micro-benchmarks
// of the computational kernels. Run with:
//
//	go test -run xxx -bench . -benchmem
//
// (add -json for machine-readable output). End-to-end performance is
// measured by the bench/ module, not here.
//
// The experiment benchmarks measure the cost of regenerating each paper
// figure/claim; the kernel benchmarks track the geometry engine, the
// extractor, and both checkers in isolation.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flat"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/tech"
	"repro/internal/workload"
)

// ---- Experiment benchmarks -------------------------------------------

func BenchmarkE01FalseErrorEconomics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunE1(tech.NMOS(), 8, 12, 24, 1980)
		if err != nil {
			b.Fatal(err)
		}
		if res.DIC.Missed != 0 || res.DIC.False != 0 {
			b.Fatalf("DIC outcome degraded: %+v", res.DIC)
		}
	}
}

func BenchmarkE02FigurePathologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.E02(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE03ExpandShrink(b *testing.B) {
	reg := geom.FromRectR(geom.R(0, 0, 5000, 5000))
	for i := 0; i < b.N; i++ {
		for _, d := range []int64{250, 500, 1000, 2000} {
			_ = geom.OrthogonalExpandArea(reg, d)
			_ = geom.EuclideanExpandArea(reg, d)
		}
	}
}

func BenchmarkE04WidthSpacingPathologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.E04(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPathology(b *testing.B, p workload.Pathology) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunPathology(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05ElectricalEquivalence(b *testing.B) {
	benchPathology(b, workload.Figure5ElectricalEquivalence())
}

func BenchmarkE06DeviceDependentRules(b *testing.B) {
	errCase, _ := workload.Figure6DeviceDependentRules()
	benchPathology(b, errCase)
}

func BenchmarkE07ContactOverGate(b *testing.B) {
	benchPathology(b, workload.Figure7ContactVsButting())
}

func BenchmarkE08AccidentalTransistor(b *testing.B) {
	benchPathology(b, workload.Figure8AccidentalTransistor())
}

func BenchmarkE09HierarchicalPipeline(b *testing.B) {
	for _, size := range []struct{ rows, cols int }{{4, 5}, {8, 12}, {16, 25}} {
		b.Run(fmt.Sprintf("cells=%d", size.rows*size.cols), func(b *testing.B) {
			tc := tech.NMOS()
			chip := workload.NewChip(tc, "bench", size.rows, size.cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.Check(chip.Design, tc, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Clean() {
					b.Fatal("chip not clean")
				}
			}
		})
	}
}

func BenchmarkE09FlatBaseline(b *testing.B) {
	for _, size := range []struct{ rows, cols int }{{4, 5}, {8, 12}, {16, 25}} {
		b.Run(fmt.Sprintf("cells=%d", size.rows*size.cols), func(b *testing.B) {
			tc := tech.NMOS()
			chip := workload.NewChip(tc, "bench", size.rows, size.cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := flat.Check(chip.Design, tc, flat.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE10SkeletalConnectivity(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	type pair struct{ a, b geom.Region }
	pairs := make([]pair, 64)
	for i := range pairs {
		x := int64(rng.Intn(2000))
		pairs[i] = pair{
			a: geom.FromRectR(geom.R(0, 0, 4000, 500)),
			b: geom.FromRectR(geom.R(x, 0, x+4000, 500)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		geom.SkeletalConnected(p.a, p.b, 500)
	}
}

func BenchmarkE11InteractionMatrix(b *testing.B) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "bench", 8, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Check(chip.Design, tc, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.InteractionCandidates == 0 {
			b.Fatal("no interaction candidates")
		}
	}
}

func BenchmarkE12ProximityExpand(b *testing.B) {
	m := process.Model{Sigma: 100, Threshold: 0.4}
	a := geom.FromRectR(geom.R(-2000, -1000, 0, 1000))
	for i := 0; i < b.N; i++ {
		for _, gap := range []int64{1000, 500, 250, 200} {
			bb := geom.FromRectR(geom.R(gap, -1000, gap+2000, 1000))
			_ = m.PrintedGap(a, bb)
		}
	}
}

func BenchmarkE13RelationalRetreat(b *testing.B) {
	m := process.Model{Sigma: 250, Threshold: 0.5}
	for i := 0; i < b.N; i++ {
		for _, w := range []int64{500, 750, 1000, 1500, 2000} {
			_ = m.EndRetreat(w)
		}
	}
}

func BenchmarkE14SelfSufficiency(b *testing.B) {
	benchPathology(b, workload.Figure15SelfSufficiency())
}

func BenchmarkE15ConstructionRules(b *testing.B) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "bench", 8, 12)
	nl, _, err := netlist.Extract(chip.Design, tc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if issues := netlist.ConstructionRules(nl, tc); len(issues) != 0 {
			b.Fatalf("clean chip flagged: %v", issues[0])
		}
	}
}

func BenchmarkE16ResidualVisualWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.E16(true); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Kernel benchmarks ------------------------------------------------

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

// BenchmarkRegionBulkUnion tracks the k-way single-sweep combiner against
// the workload BenchmarkRegionUnion covers rect-by-rect: 16 overlapping
// 100-rect regions folded in one pass, into a recycled destination.
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
	var dst geom.Region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.BulkUnionInto(&dst, regs)
	}
}

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

func BenchmarkCIFRoundTrip(b *testing.B) {
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

func BenchmarkPairFinder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var pf geom.PairFinder
	for i := 0; i < 5000; i++ {
		x, y := int64(rng.Intn(200000)), int64(rng.Intn(200000))
		pf.AddRect(i, geom.R(x, y, x+1000, y+1000), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		pf.Pairs(750, nil, func(geom.Pair) { n++ })
	}
}

func BenchmarkFlattenDesign(b *testing.B) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "bench", 16, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chip.Design.Flatten(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExposureClosedForm(b *testing.B) {
	m := process.DefaultModel()
	mask := geom.FromRects([]geom.Rect{
		geom.R(0, 0, 400, 200), geom.R(300, 100, 600, 500), geom.R(700, 0, 900, 400),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ExposureAt(mask, geom.FPoint{X: 350, Y: 150})
	}
}

// ---- Definition-prebuild pool benchmarks -------------------------------

// benchShiftRegCheck runs a cold check of a unique-rows shift-register
// chip (one definition per row, so the pool has independent work) with the
// given Options.Workers, reporting the interaction stage's own wall time
// as interact-ns/op alongside the whole-pipeline ns/op. Comparing
// workers=1 against workers=all at the same cell count gives the speedup
// of building the per-definition interaction caches on the pool.
func benchShiftRegCheck(b *testing.B, rows, cols, workers int) {
	b.Helper()
	tc := tech.NMOS()
	chip := workload.NewChipUnique(tc, "shiftreg", rows, cols)
	b.ResetTimer()
	var stageNS int64
	for i := 0; i < b.N; i++ {
		rep, err := core.Check(chip.Design, tc, core.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("chip not clean")
		}
		for _, s := range rep.Stats.Stages {
			if s.Name == "check interactions" {
				stageNS += s.Duration.Nanoseconds()
			}
		}
	}
	b.ReportMetric(float64(stageNS)/float64(b.N), "interact-ns/op")
}

func BenchmarkInteractionSerialVsParallel(b *testing.B) {
	for _, size := range []struct{ rows, cols int }{{8, 8}, {16, 16}, {16, 32}} {
		cells := size.rows * size.cols
		b.Run(fmt.Sprintf("cells=%d/workers=1", cells), func(b *testing.B) {
			benchShiftRegCheck(b, size.rows, size.cols, 1)
		})
		b.Run(fmt.Sprintf("cells=%d/workers=all", cells), func(b *testing.B) {
			benchShiftRegCheck(b, size.rows, size.cols, 0)
		})
	}
}

// ---- Incremental engine benchmarks ------------------------------------

// recheckWorkload builds the unique-rows inverter-array chip used by the
// cold-vs-warm experiments, with one out-of-the-way metal probe box per
// row definition that the edit loop nudges (a single-symbol edit that
// keeps the chip clean and the design size constant).
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
		s.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "GND")
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
// unique-rows chip: every definition artifact and interaction cache is
// rebuilt. Compare with BenchmarkRecheckOneSymbol.
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
// 64 unique row definitions) — the scaling point of the cold-check curve.
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
// from the content-addressed caches. The report is byte-identical to the
// cold run's (enforced by TestEngineRecheckByteIdentical).
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

// BenchmarkRecheckNoEdit measures the pure replay floor: rechecking an
// unchanged design (hashing + cache lookups + report assembly).
func BenchmarkRecheckNoEdit(b *testing.B) {
	tc, chip, _ := recheckWorkload(32, 32)
	eng := core.NewEngine(tc, core.Options{})
	if _, err := eng.Check(chip.Design); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Recheck(chip.Design); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckColdArray measures a from-scratch engine run on the
// uniform 64×64 array chip: one shared row definition instanced 64 times
// (4096 cells total). The instance-context dedup makes this far cheaper
// per instance than the unique-rows BenchmarkCheckColdLarge — all 64 row
// placements share one translation class, so the row's span embedding is
// built once and derived 63 times by pure coordinate translation.
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
func BenchmarkRecheckOneBox(b *testing.B) {
	tc := tech.NMOS()
	benchRecheckOneBox(b, tc, workload.NewChip(tc, "arr", 64, 64))
}

// BenchmarkRecheckOneBoxUnique is the same probe move on the 64×64
// unique-row chip: 72 definitions and some 4 200 call sites where the
// uniform array has about 130, so any per-run walk of the call graph
// around the patch (hashing, validation, ordering, cache ageing) shows
// here and not above.
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
// one row re-derive, every other definition replays from the caches.
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
// service pays once per engine run, on the two report shapes the
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
