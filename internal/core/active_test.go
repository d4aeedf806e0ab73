package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// TestActiveEditDifferential drives the full (non-patched) warm re-derive
// with scripts weighted toward the electrically active edit shapes — a
// wire moved inside a called definition, a call of the top moved, a
// top-level box added or deleted — on unique-row, shared-row and CMOS
// arrays, with the prebuild pool off and on. After every step the warm
// report equals a cold engine's by digest (and, on the one-worker runs,
// agrees with the spec), and the report of the step before still reads as
// it did when it was returned: a full run shares slabs, interned names and
// per-definition folds with nothing the previous report holds.
func TestActiveEditDifferential(t *testing.T) {
	nm, cm := tech.NMOS(), tech.CMOS()
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for _, c := range []struct {
		name string
		tc   *tech.Technology
		make func() *layout.Design
	}{
		{"unique", nm, func() *layout.Design { return workload.NewChipUnique(nm, "act", 3, 4).Design }},
		{"shared", nm, func() *layout.Design { return workload.NewChip(nm, "act", 3, 4).Design }},
		{"cmos", cm, func() *layout.Design { return workload.NewCMOSChip(cm, "act", 3, 3).Design }},
	} {
		for _, workers := range []int{1, 0} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/workers%d/seed%d", c.name, workers, seed), func(t *testing.T) {
					defer pinProcs(workers)()
					d := c.make()
					script := workload.NewActiveEdits(seed)
					eng := NewEngine(c.tc, Options{})
					prev, err := eng.Check(d)
					if err != nil {
						t.Fatal(err)
					}
					prevDigest := FingerprintDigest(prev)
					applied, full := 0, 0
					for i := 0; i < steps; i++ {
						e := script.Next(d, c.tc)
						label := fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol)
						if layout.ApplyEdit(d, c.tc, e) != nil {
							continue
						}
						applied++
						warm, err := eng.Recheck(d)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !eng.Stats().WindowPatched {
							full++
						}
						cold, err := runOn(1, NewEngine(c.tc, Options{}).Check, d)
						if err != nil {
							t.Fatalf("%s: cold: %v", label, err)
						}
						if FingerprintDigest(warm) != FingerprintDigest(cold) {
							requireSameReport(t, label+": warm vs cold", warm, cold)
						}
						if workers == 1 {
							requireSpec(t, label, warm, specCheck(d, c.tc, Options{}))
						}
						if FingerprintDigest(prev) != prevDigest {
							t.Fatalf("%s: the previous step's report changed under its holder", label)
						}
						prev, prevDigest = warm, FingerprintDigest(warm)
					}
					if applied < steps/2 || full < applied/2 {
						t.Fatalf("script too tame: %d of %d edits applied, %d full re-derives", applied, steps, full)
					}
				})
			}
		}
	}
}

// TestFullPathReasons pins the reason each edit shape of the edit-loop
// script reports for taking (or not taking) the full path, and a few of
// extraction's own refusals around them.
func TestFullPathReasons(t *testing.T) {
	nm := tech.NMOS()
	d := workload.NewChipUnique(nm, "why", 4, 5).Design
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	d.Top.AddBox(metalL, geom.R(-30000, 0, -28000, 2000), "")
	probe := len(d.Top.Elements) - 1
	top := d.Top.Name
	eng := NewEngine(nm, Options{})

	run := func(label, want string, edits ...layout.Edit) {
		t.Helper()
		for _, e := range edits {
			if err := layout.ApplyEdit(d, nm, e); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if _, err := eng.Recheck(d); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		st := eng.Stats()
		if st.FullPath != want || st.WindowPatched != (want == "") {
			t.Fatalf("%s: full path %q (window-patched %v), want %q", label, st.FullPath, st.WindowPatched, want)
		}
	}
	run("first run", netlist.RefuseNoBaseline)
	run("no edit", "")
	// The script's four shapes.
	run("window: probe move", "",
		layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: probe, DY: 250})
	run("symbol: head wire of one row", netlist.RefuseChildChanged,
		layout.Edit{Op: layout.OpMoveElement, Symbol: "row1", Index: 0, DY: 250})
	run("struct: sliver added", netlist.RefuseStructuralEdit,
		layout.Edit{Op: layout.OpAddBox, Symbol: top, Layer: tech.NMOSMetal, Box: []int64{-42000, -20000, -41750, -17500}})
	run("struct: sliver deleted", netlist.RefuseStructuralEdit,
		layout.Edit{Op: layout.OpDeleteElement, Symbol: top, Index: -1})
	run("call: row moved", netlist.RefuseStructuralEdit,
		layout.Edit{Op: layout.OpMoveCall, Symbol: top, Index: 2, DX: -250})
	// Extraction's refusals of moved elements.
	run("a rail trunk moved", netlist.RefuseElementDeclared,
		layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: 0, DX: 250})
	run("the trunk moved back", netlist.RefuseElementDeclared,
		layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: 0, DX: -250})
	run("the probe moved onto the trunk", netlist.RefuseContactAfterMove,
		layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: probe,
			DX: d.Top.Elements[0].Bounds().X1 - d.Top.Elements[probe].Bounds().X1,
			DY: d.Top.Elements[0].Bounds().Y1 - d.Top.Elements[probe].Bounds().Y1})
	if got := eng.Stats().String(); !strings.HasSuffix(got, ", full path: "+netlist.RefuseContactAfterMove) {
		t.Fatalf("String() = %q, want the reason at the end", got)
	}
	run("the probe moved off the trunk", netlist.RefuseElementNotInert,
		layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: probe, DX: -40000})
	// Another engine's run between two of this one's costs it nothing.
	if err := layout.ApplyEdit(d, nm, layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: probe, DY: 250}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(nm, Options{}).Check(d); err != nil {
		t.Fatal(err)
	}
	run("probe moved after another engine's run", "",
		layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: probe, DY: 250})
	row, _ := d.Symbol("row1")
	d.Top = row
	run("new top", netlist.RefuseNoBaseline)
}

// activeRecheck returns one iteration of the benchmark's symbol shape: the
// head wire of a row moves out and back on alternate calls, then a
// Recheck, which must take the full path.
func activeRecheck(t *testing.T, n int) (func(), *Engine) {
	nm := tech.NMOS()
	d := workload.NewChipUnique(nm, fmt.Sprintf("full%d", n), n, n).Design
	eng := NewEngine(nm, Options{})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}
	dy := int64(250)
	return func() {
		if err := layout.ApplyEdit(d, nm, layout.Edit{Op: layout.OpMoveElement, Symbol: "row1", Index: 0, DY: dy}); err != nil {
			t.Fatal(err)
		}
		dy = -dy
		if _, err := eng.Recheck(d); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.FullPath != netlist.RefuseChildChanged {
			t.Fatalf("%dx%d row edit: full path %q, want %q", n, n, st.FullPath, netlist.RefuseChildChanged)
		}
	}, eng
}

// TestFullRederiveAllocsBounded guards the allocation count of the full
// warm re-derive: per-device, per-net and per-instance arrays come out of
// slabs, so an active edit of a 16×16 unique-row chip (1 296 devices)
// allocates under two hundred objects, not a few per device.
func TestFullRederiveAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	step, _ := activeRecheck(t, 16)
	step() // the displaced row's definitions are built once
	step()
	allocs := testing.AllocsPerRun(10, step)
	const maxAllocs = 192 // measured 160, +20 %
	if allocs > maxAllocs {
		t.Fatalf("full re-derive allocates %.0f objects per run, want <= %d", allocs, maxAllocs)
	}
}

// TestFullRederiveAllocsScaleFree: four times the devices (32×32 against
// 16×16) must cost well under four times the objects — what grows is the
// edited row (twice the cells), not the chip.
func TestFullRederiveAllocsScaleFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	measure := func(n int) float64 {
		step, _ := activeRecheck(t, n)
		step()
		step()
		return testing.AllocsPerRun(10, step)
	}
	small, large := measure(16), measure(32)
	if large >= 1.5*small {
		t.Fatalf("full re-derive allocates %.0f objects on 16x16 and %.0f on 32x32: grows with the chip", small, large)
	}
}

// TestKeepoutsAcrossSpanBoundary: a keepout probe whose cut or isolation
// item lives in one child span and whose gate or base lives in the
// neighbouring one must survive the span-bounds prefilter. A CMOS array
// with one row pushed diagonally onto the next (its contact cuts land on
// the neighbour's gates) plus an accidental transistor, and a bipolar chip
// with one pair pushed against the neighbour's isolation tongue plus a
// broken isolation, report the spec's keepout violations, with the
// prebuild pool off and on.
func TestKeepoutsAcrossSpanBoundary(t *testing.T) {
	cm, bp := tech.CMOS(), tech.Bipolar()
	cmos := workload.NewCMOSChip(cm, "xspan", 3, 3)
	cmos.BreakAccidentalTransistor(1)
	bip := workload.NewBipolarChip(bp, "xspan", 4)
	bip.BreakIsolation(2)
	for _, c := range []struct {
		name, rule string
		tc         *tech.Technology
		d          *layout.Design
		call       int
		dx, dy     int64 // search direction for the push
	}{
		{"cmos", "DEV.GATE.CONTACT", cm, cmos.Design, 1, -100, -400},
		{"bipolar", "DEV.NPN.ISO", bp, bip.Design, 1, -100, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Push the call step by step until the spec reports a keepout
			// violation whose path lies inside a span (the Break* errors sit
			// at the top level and carry no path).
			crossSpan := func(vs []Violation) int {
				n := 0
				for _, v := range vs {
					if v.Rule == c.rule && v.Path != "" {
						n++
					}
				}
				return n
			}
			for push := 1; ; push++ {
				if push > 60 {
					t.Fatalf("no cross-span %s within 60 pushes", c.rule)
				}
				if err := layout.ApplyEdit(c.d, c.tc, layout.Edit{Op: layout.OpMoveCall, Symbol: c.d.Top.Name, Index: c.call, DX: c.dx, DY: c.dy}); err != nil {
					t.Fatal(err)
				}
				want := specCheck(c.d, c.tc, Options{})
				if crossSpan(want.violations) == 0 {
					continue
				}
				var serial *Report
				for _, workers := range []int{1, 0} {
					got, err := runOn(workers, NewEngine(c.tc, Options{}).Check, c.d)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("push %d, workers %d", push, workers)
					requireSpec(t, label, got, want)
					if serial == nil {
						serial = got
					} else {
						requireSameReport(t, label, got, serial)
					}
				}
				return
			}
		})
	}
}
