package core

// Twins: symbols that draw the same thing under different names. Their
// content hashes are equal, so they share every cached result; a name
// enters a result only where the result is added to a report.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// cloneSymbol registers a twin of s under name: copies of its elements and
// calls to the same targets, under the same instance names and transforms.
func cloneSymbol(d *layout.Design, s *layout.Symbol, name string) *layout.Symbol {
	c := d.MustSymbol(name)
	c.DeviceType, c.Checked = s.DeviceType, s.Checked
	for _, e := range s.Elements {
		cp := *e
		cp.Path, cp.Poly = slices.Clone(e.Path), slices.Clone(e.Poly)
		c.AddElement(&cp)
	}
	for _, call := range s.Calls {
		c.AddCall(call.Target, call.T, call.Name)
	}
	return c
}

// twinDesign places two twins of a cell whose metal box is narrower than
// the layer's width (stage 1's W.NM and the layer rules' WIDTH.NM) and two
// twins of a transistor whose poly stops flush with the channel (stage 2's
// DEV.MOS.*), far enough apart that nothing interacts.
func twinDesign(nm *tech.Technology) *layout.Design {
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	polyL, _ := nm.LayerByName(tech.NMOSPoly)
	diffL, _ := nm.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("twins")
	a := d.MustSymbol("a")
	a.AddBox(metalL, geom.R(0, 0, 500, 500), "")
	b := cloneSymbol(d, a, "b")
	bad := d.MustSymbol("bad1")
	bad.DeviceType = tech.DevNMOSEnh
	bad.AddBox(polyL, geom.R(-250, -250, 250, 250), "")
	bad.AddBox(diffL, geom.R(-750, -250, 750, 250), "")
	bad2 := cloneSymbol(d, bad, "bad2")
	top := d.MustSymbol("top")
	top.AddCall(a, geom.Identity, "a0")
	top.AddCall(b, geom.Translate(geom.Pt(50000, 0)), "b0")
	top.AddCall(bad, geom.Translate(geom.Pt(0, 50000)), "t1")
	top.AddCall(bad2, geom.Translate(geom.Pt(50000, 50000)), "t2")
	d.Top = top
	return d
}

// countBy counts a report's violations of one rule attributed to one symbol.
func countBy(rep *Report, rule, symbol string) int {
	n := 0
	for _, v := range rep.Violations {
		if v.Rule == rule && v.Symbol == symbol {
			n++
		}
	}
	return n
}

// TestTwinsReportUnderOwnNames: a stage-1, a layer-rule and a device
// violation inside two renamed twins is reported once under each twin's own
// name, though each twin pair shares one cached result; and a rename,
// which moves no hash, shows in the next report as it does in a cold one.
func TestTwinsReportUnderOwnNames(t *testing.T) {
	nm := tech.NMOS()
	d := twinDesign(nm)
	a, _ := d.Symbol("a")
	b, _ := d.Symbol("b")
	if a.Hashes() != b.Hashes() {
		t.Fatal("the twins hash differently")
	}
	eng := NewEngine(nm, Options{})
	rep, err := eng.Check(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ rule, a, b string }{
		{"W.NM", "a", "b"},
		{"WIDTH.NM", "a", "b"},
		{"DEV.MOS.GATEEXT", "bad1", "bad2"},
	} {
		if countBy(rep, c.rule, c.a) != 1 || countBy(rep, c.rule, c.b) != 1 {
			t.Fatalf("%s: %d under %q and %d under %q, want one each", c.rule,
				countBy(rep, c.rule, c.a), c.a, countBy(rep, c.rule, c.b), c.b)
		}
	}
	requireSpec(t, "cold", rep, specCheck(d, nm, Options{}))

	d.Rename(b, "b-renamed")
	warm, err := eng.Recheck(d)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.DirtySymbols != 0 {
		t.Fatalf("a rename moved %d subtree hashes", st.DirtySymbols)
	}
	if countBy(warm, "W.NM", "b") != 0 || countBy(warm, "W.NM", "b-renamed") != 1 || countBy(warm, "W.NM", "a") != 1 {
		t.Fatal("the renamed twin's violation is not under its new name alone")
	}
	cold, err := NewEngine(nm, Options{}).Check(d)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "after the rename, warm vs cold", warm, cold)
}

// TestTwinsShareColdWork: the unique-rows chip's rows differ only by name,
// so a cold check of it extracts, sweeps and adjudicates exactly what one of
// the shared-row chip does under the same injected errors; and it computes
// one net-environment signature per instance with pairs.
func TestTwinsShareColdWork(t *testing.T) {
	nm := tech.NMOS()
	unique := workload.NewChipUnique(nm, "unique", 24, 24)
	workload.InjectErrors(unique, 14, 1)
	shared := workload.NewChip(nm, "shared", 24, 24)
	workload.InjectErrors(shared, 14, 1)
	stats := func(d *layout.Design) EngineStats {
		eng := NewEngine(nm, Options{})
		if _, err := eng.Check(d); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}
	u, s := stats(unique.Design), stats(shared.Design)
	if u.ArtifactDefs != s.ArtifactDefs || u.InterBuilt != s.InterBuilt || u.SigMisses != s.SigMisses || u.CtxMisses != s.CtxMisses {
		t.Fatalf("unique rows: %d artifacts, %d interaction caches built, %d signature misses, %d contexts built;\n"+
			"shared row: %d, %d, %d, %d", u.ArtifactDefs, u.InterBuilt, u.SigMisses, u.CtxMisses,
			s.ArtifactDefs, s.InterBuilt, s.SigMisses, s.CtxMisses)
	}
	t.Logf("cold 24x24 with 14 errors: %v", u)

	d := workload.NewChipUnique(nm, "sigs", 32, 32).Design
	for _, workers := range []int{1, 2} {
		restore := pinProcs(workers)
		st := stats(d)
		restore()
		if withPairs := st.SigMisses + st.SigHits; st.Signatures != withPairs {
			t.Fatalf("workers=%d: a cold check computed %d signatures for %d instances with pairs", workers, st.Signatures, withPairs)
		}
	}
}

// TestTwinsDivergeAndReconverge: twin rows part under an edit of one, meet
// again under its undo, and meet on new content when the other takes the
// same edit; a twin is renamed in between. After every step the warm report
// equals a cold one and agrees with the spec, serially and on the pool.
func TestTwinsDivergeAndReconverge(t *testing.T) {
	nm := tech.NMOS()
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			defer pinProcs(workers)()
			d := workload.NewChipUnique(nm, "twins", 3, 4).Design
			move := func(sym string, dy int64) func() {
				return func() {
					if err := layout.ApplyEdit(d, nm, layout.Edit{Op: layout.OpMoveElement, Symbol: sym, Index: 0, DY: dy}); err != nil {
						t.Fatal(err)
					}
				}
			}
			eng := NewEngine(nm, Options{})
			first, err := eng.Check(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				label string
				edit  func()
			}{
				{"row1 diverges", move("row1", 250)},
				{"row2 renamed", func() { r, _ := d.Symbol("row2"); d.Rename(r, "row2-twin") }},
				{"row1 reconverges", move("row1", -250)},
				{"row0 diverges", move("row0", 250)},
				{"row1 joins row0", move("row1", 250)},
				{"both undone", func() { move("row0", -250)(); move("row1", -250)() }},
			} {
				step.edit()
				warm, err := eng.Recheck(d)
				if err != nil {
					t.Fatalf("%s: %v", step.label, err)
				}
				cold, err := NewEngine(nm, Options{}).Check(d)
				if err != nil {
					t.Fatalf("%s: cold: %v", step.label, err)
				}
				requireSameReport(t, step.label+": warm vs cold", warm, cold)
				requireSpec(t, step.label, warm, specCheck(d, nm, Options{}))
			}
			r, _ := d.Symbol("row2-twin")
			d.Rename(r, "row2")
			back, err := eng.Recheck(d)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, "every edit undone", back, first)
		})
	}
}

// TestEngineCarriesTwinAcrossDesigns: one engine checks a design, then
// another that holds twins, under other names, of the first design's
// cells, while one of its own cells takes a name the first design gave to
// different content. The report equals a fresh engine's.
func TestEngineCarriesTwinAcrossDesigns(t *testing.T) {
	nm := tech.NMOS()
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	first := twinDesign(nm)
	second := layout.NewDesign("second")
	a, _ := first.Symbol("a")
	bad, _ := first.Symbol("bad1")
	twinA := cloneSymbol(second, a, "cell")
	twinBad := cloneSymbol(second, bad, "tran")
	other := second.MustSymbol("a") // the first design's name, other content
	other.AddBox(metalL, geom.R(0, 0, 600, 600), "")
	top := second.MustSymbol("chip")
	top.AddCall(twinA, geom.Identity, "a0")
	top.AddCall(other, geom.Translate(geom.Pt(50000, 0)), "b0")
	top.AddCall(twinBad, geom.Translate(geom.Pt(0, 50000)), "t1")
	second.Top = top

	eng := NewEngine(nm, Options{})
	if _, err := eng.Check(first); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Check(second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(nm, Options{}).Check(second)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "second design after the first", got, want)
	if countBy(got, "W.NM", "cell") != 1 || countBy(got, "W.NM", "a") != 1 || countBy(got, "DEV.MOS.GATEEXT", "tran") != 1 {
		t.Fatal("the second design's violations are not under its own names")
	}
}

// TestTopSwitchedToWrappedTwin: the top switches to a wrapper that calls a
// renamed twin of the old top, whose artifact the cache retires as the
// last root build; the report equals a cold one. So do the
// reports after switching back, whose root is then an artifact the wrapper
// embeds, and after an edit of the old top that the root patch could
// otherwise answer in place.
func TestTopSwitchedToWrappedTwin(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChipUnique(nm, "wrap", 3, 4)
	workload.InjectErrors(chip, 4, 2)
	d := chip.Design
	old := d.Top
	eng := NewEngine(nm, Options{})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}
	wrap := d.MustSymbol("wrap")
	wrap.AddCall(cloneSymbol(d, old, "chip-twin"), geom.NewTransform(geom.MX, geom.Pt(0, 0)), "w")
	for i, top := range []*layout.Symbol{wrap, old, old, wrap} {
		d.Top = top
		if i == 2 {
			if err := layout.ApplyEdit(d, nm, layout.Edit{Op: layout.OpMoveElement, Symbol: old.Name, Index: -1, DY: 250}); err != nil {
				t.Fatal(err)
			}
		}
		warm, err := eng.Recheck(d)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewEngine(nm, Options{}).Check(d)
		if err != nil {
			t.Fatal(err)
		}
		requireSameReport(t, "top "+top.Name+": warm vs cold", warm, cold)
	}
}
