package layout

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/tech"
)

func nmosLayers(t *testing.T) (*tech.Technology, tech.LayerID, tech.LayerID, tech.LayerID) {
	t.Helper()
	tc := tech.NMOS()
	d, _ := tc.LayerByName(tech.NMOSDiff)
	p, _ := tc.LayerByName(tech.NMOSPoly)
	m, _ := tc.LayerByName(tech.NMOSMetal)
	return tc, d, p, m
}

func TestElementRegions(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	box := &Element{Kind: KindBox, Layer: d, Box: geom.R(0, 0, 500, 500)}
	r, err := box.Region()
	if err != nil {
		t.Fatal(err)
	}
	if r.Area() != 250000 {
		t.Fatalf("box area = %d", r.Area())
	}
	if box.Bounds() != geom.R(0, 0, 500, 500) {
		t.Fatalf("box bounds = %v", box.Bounds())
	}
}

func TestWireRegionStraight(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	w := &Element{Kind: KindWire, Layer: d, Width: 100,
		Path: []geom.Point{geom.Pt(0, 0), geom.Pt(400, 0)}}
	r, err := w.Region()
	if err != nil {
		t.Fatal(err)
	}
	// Segment with square caps: length 400 + 2*50 = 500 long, 100 wide.
	if got := r.Bounds(); got != geom.R(-50, -50, 450, 50) {
		t.Fatalf("wire bounds = %v", got)
	}
	if got := r.Area(); got != 500*100 {
		t.Fatalf("wire area = %d", got)
	}
	if w.Bounds() != r.Bounds() {
		t.Fatalf("Bounds()=%v disagrees with region %v", w.Bounds(), r.Bounds())
	}
}

func TestWireRegionBend(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	w := &Element{Kind: KindWire, Layer: d, Width: 100,
		Path: []geom.Point{geom.Pt(0, 0), geom.Pt(300, 0), geom.Pt(300, 300)}}
	r, err := w.Region()
	if err != nil {
		t.Fatal(err)
	}
	// Two 100-wide strips overlapping in a 100×100 elbow.
	want := int64(400*100 + 400*100 - 100*100)
	if got := r.Area(); got != want {
		t.Fatalf("bend area = %d, want %d", got, want)
	}
	// The bend must be a single component with legal width.
	if len(r.Components()) != 1 {
		t.Fatal("bent wire must be one component")
	}
	if !geom.MinWidthOK(r, 100) {
		t.Fatal("bent wire must pass its own width")
	}
}

func TestWireErrors(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	diag := &Element{Kind: KindWire, Layer: d, Width: 100,
		Path: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 100)}}
	if _, err := diag.Region(); err == nil {
		t.Fatal("diagonal wire must be rejected")
	}
	empty := &Element{Kind: KindWire, Layer: d, Width: 100}
	if _, err := empty.Region(); err == nil {
		t.Fatal("empty wire must be rejected")
	}
	zero := &Element{Kind: KindWire, Layer: d, Width: 0,
		Path: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}}
	if _, err := zero.Region(); err == nil {
		t.Fatal("zero-width wire must be rejected")
	}
}

func TestOddWidthWireExact(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	w := &Element{Kind: KindWire, Layer: d, Width: 7,
		Path: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}}
	r, err := w.Region()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Area(); got != 107*7 {
		t.Fatalf("odd wire area = %d, want %d", got, 107*7)
	}
}

func TestDesignBuildAndValidate(t *testing.T) {
	tc, d, p, _ := nmosLayers(t)
	_ = tc
	ds := NewDesign("test")
	dev := ds.MustSymbol("tran")
	dev.DeviceType = "nmos-enh"
	dev.AddBox(p, geom.R(-100, -500, 100, 500), "")
	dev.AddBox(d, geom.R(-500, -100, 500, 100), "")

	cell := ds.MustSymbol("cell")
	cell.AddCall(dev, geom.Translate(geom.Pt(1000, 1000)), "t1")
	cell.AddWire(d, 500, "out", geom.Pt(0, 0), geom.Pt(2000, 0))

	top := ds.MustSymbol("top")
	top.AddCall(cell, geom.Identity, "c1")
	top.AddCall(cell, geom.Translate(geom.Pt(5000, 0)), "c2")
	ds.Top = top

	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.Symbols != 3 || st.PrimitiveSymbols != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Calls != 3 {
		t.Fatalf("calls = %d", st.Calls)
	}
	if st.FlatElements != 2*(1+2) {
		t.Fatalf("flat elements = %d, want 6", st.FlatElements)
	}
	if st.FlatDevices != 2 {
		t.Fatalf("flat devices = %d, want 2", st.FlatDevices)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	ds := NewDesign("cyclic")
	a := ds.MustSymbol("a")
	b := ds.MustSymbol("b")
	a.AddCall(b, geom.Identity, "")
	b.AddCall(a, geom.Identity, "")
	ds.Top = a
	if err := ds.Validate(); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestValidateRejectsPrimitiveWithCalls(t *testing.T) {
	ds := NewDesign("badprim")
	child := ds.MustSymbol("child")
	prim := ds.MustSymbol("prim")
	prim.DeviceType = "nmos-enh"
	prim.AddCall(child, geom.Identity, "")
	ds.Top = prim
	if err := ds.Validate(); err == nil || !strings.Contains(err.Error(), "primitive") {
		t.Fatalf("expected primitive error, got %v", err)
	}
}

func TestFlattenPathsAndTransforms(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	ds := NewDesign("flat")
	leaf := ds.MustSymbol("leaf")
	leaf.AddBox(d, geom.R(0, 0, 100, 100), "n1")

	mid := ds.MustSymbol("mid")
	mid.AddCall(leaf, geom.Translate(geom.Pt(1000, 0)), "u")

	top := ds.MustSymbol("top")
	top.AddCall(mid, geom.Translate(geom.Pt(0, 2000)), "m")
	ds.Top = top

	flat, err := ds.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 1 {
		t.Fatalf("flat count = %d", len(flat))
	}
	fe := flat[0]
	if fe.Path != "m.u" {
		t.Fatalf("path = %q, want m.u", fe.Path)
	}
	if got := fe.Bounds(); got != geom.R(1000, 2000, 1100, 2100) {
		t.Fatalf("bounds = %v", got)
	}
}

func TestFlattenWithRotation(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	ds := NewDesign("rot")
	leaf := ds.MustSymbol("leaf")
	leaf.AddBox(d, geom.R(0, 0, 200, 100), "")
	top := ds.MustSymbol("top")
	top.AddCall(leaf, geom.NewTransform(geom.R90, geom.Pt(1000, 0)), "r")
	ds.Top = top
	flat, err := ds.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if got := flat[0].Bounds(); got != geom.R(900, 0, 1000, 200) {
		t.Fatalf("rotated bounds = %v", got)
	}
}

func TestFlatLayerRegions(t *testing.T) {
	tc, d, p, _ := nmosLayers(t)
	ds := NewDesign("regions")
	leaf := ds.MustSymbol("leaf")
	leaf.AddBox(d, geom.R(0, 0, 100, 100), "")
	leaf.AddBox(p, geom.R(50, 0, 150, 100), "")
	top := ds.MustSymbol("top")
	top.AddCall(leaf, geom.Identity, "a")
	top.AddCall(leaf, geom.Translate(geom.Pt(50, 0)), "b")
	ds.Top = top
	regs, err := ds.FlatLayerRegions(tc.NumLayers())
	if err != nil {
		t.Fatal(err)
	}
	if got := regs[d].Area(); got != 150*100 {
		t.Fatalf("diff area = %d, want 15000 (union of overlap)", got)
	}
	if got := regs[p].Area(); got != 150*100 {
		t.Fatalf("poly area = %d", got)
	}
}

func TestSymbolBoundsCaching(t *testing.T) {
	_, d, _, _ := nmosLayers(t)
	ds := NewDesign("cache")
	s := ds.MustSymbol("s")
	s.AddBox(d, geom.R(0, 0, 10, 10), "")
	if got := s.Bounds(); got != geom.R(0, 0, 10, 10) {
		t.Fatalf("bounds = %v", got)
	}
	s.AddBox(d, geom.R(50, 50, 60, 60), "")
	if got := s.Bounds(); got != geom.R(0, 0, 60, 60) {
		t.Fatalf("bounds after add = %v (cache not invalidated?)", got)
	}
}

func TestSortedSymbolsTopological(t *testing.T) {
	ds := NewDesign("topo")
	leaf := ds.MustSymbol("leaf")
	mid := ds.MustSymbol("mid")
	top := ds.MustSymbol("top")
	mid.AddCall(leaf, geom.Identity, "")
	top.AddCall(mid, geom.Identity, "")
	ds.Top = top
	order := ds.SortedSymbols()
	pos := map[string]int{}
	for i, s := range order {
		pos[s.Name] = i
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Fatalf("order = %v", order)
	}
}

func TestDuplicateSymbolRejected(t *testing.T) {
	ds := NewDesign("dup")
	ds.MustSymbol("x")
	if _, err := ds.NewSymbol("x"); err == nil {
		t.Fatal("duplicate symbol name must be rejected")
	}
}

func TestRename(t *testing.T) {
	ds := NewDesign("ren")
	s := ds.MustSymbol("old")
	ds.Rename(s, "new")
	if _, ok := ds.Symbol("old"); ok {
		t.Fatal("old name should be gone")
	}
	if got, ok := ds.Symbol("new"); !ok || got != s {
		t.Fatal("new name should resolve")
	}
}

// Property: Element.Bounds always equals the materialized region's bounds
// for random Manhattan wires.
func TestQuickWireBoundsConsistency(t *testing.T) {
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		pts := make([]geom.Point, n)
		x, y := int64(rng.Intn(50)), int64(rng.Intn(50))
		pts[0] = geom.Pt(x, y)
		for i := 1; i < n; i++ {
			d := int64(1 + rng.Intn(40))
			if rng.Intn(2) == 0 {
				x += d
			} else {
				y += d
			}
			pts[i] = geom.Pt(x, y)
		}
		w := int64(2 + 2*rng.Intn(5))
		e := &Element{Kind: KindWire, Layer: diffL, Width: w, Path: pts}
		reg, err := e.Region()
		if err != nil {
			return false
		}
		return e.Bounds() == reg.Bounds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
