package layout

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func editDesign(t *testing.T) (*Design, *tech.Technology) {
	t.Helper()
	tc := tech.NMOS()
	d := NewDesign("edit-test")
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	leaf := d.MustSymbol("leaf")
	leaf.AddBox(diff, geom.R(0, 0, 200, 200), "")
	top := d.MustSymbol("top")
	top.AddBox(diff, geom.R(1000, 0, 1400, 400), "a")
	top.AddWire(diff, 200, "", geom.Pt(2000, 0), geom.Pt(2000, 800))
	top.AddCall(leaf, geom.Translate(geom.Pt(5000, 0)), "l0")
	d.Top = top
	return d, tc
}

func TestApplyEditOps(t *testing.T) {
	d, tc := editDesign(t)
	top := d.Top

	if err := ApplyEdit(d, tc, Edit{Op: OpAddBox, Symbol: "top", Layer: tech.NMOSMetal, Box: []int64{0, 0, 300, 900}, Net: "VDD"}); err != nil {
		t.Fatal(err)
	}
	if got := len(top.Elements); got != 3 {
		t.Fatalf("elements after add_box = %d", got)
	}
	if top.Elements[2].Net != "VDD" || top.Elements[2].Index != 2 {
		t.Fatalf("added box wrong: %+v", top.Elements[2])
	}

	if err := ApplyEdit(d, tc, Edit{Op: OpAddWire, Symbol: "top", Layer: tech.NMOSPoly, Width: 200, Path: []int64{0, 0, 0, 600, 400, 600}}); err != nil {
		t.Fatal(err)
	}
	if got := top.Elements[3]; got.Kind != KindWire || len(got.Path) != 3 {
		t.Fatalf("added wire wrong: %+v", got)
	}

	// Negative index addresses from the end.
	if err := ApplyEdit(d, tc, Edit{Op: OpDeleteElement, Symbol: "top", Index: -1}); err != nil {
		t.Fatal(err)
	}
	if got := len(top.Elements); got != 3 {
		t.Fatalf("elements after delete = %d", got)
	}

	// Deleting from the middle renumbers the tail.
	if err := ApplyEdit(d, tc, Edit{Op: OpDeleteElement, Symbol: "top", Index: 0}); err != nil {
		t.Fatal(err)
	}
	for i, e := range top.Elements {
		if e.Index != i {
			t.Fatalf("element %d has Index %d after delete", i, e.Index)
		}
	}

	if err := ApplyEdit(d, tc, Edit{Op: OpMoveElement, Symbol: "top", Index: 0, DX: 50, DY: -25}); err != nil {
		t.Fatal(err)
	}
	if top.Elements[0].Path[0] != geom.Pt(2050, -25) {
		t.Fatalf("wire not moved: %+v", top.Elements[0].Path)
	}

	if err := ApplyEdit(d, tc, Edit{Op: OpAddCall, Symbol: "top", Target: "leaf", Name: "l1", Orient: "MX", DX: 7000, DY: 300}); err != nil {
		t.Fatal(err)
	}
	c := top.Calls[len(top.Calls)-1]
	if c.Name != "l1" || c.T.Orient != geom.MX || c.T.Trans != geom.Pt(7000, 300) {
		t.Fatalf("added call wrong: %+v %+v", c, c.T)
	}

	if err := ApplyEdit(d, tc, Edit{Op: OpMoveCall, Symbol: "top", Index: 0, DX: -500}); err != nil {
		t.Fatal(err)
	}
	if top.Calls[0].T.Trans != geom.Pt(4500, 0) {
		t.Fatalf("call not moved: %+v", top.Calls[0].T)
	}

	if err := ApplyEdit(d, tc, Edit{Op: OpDeleteCall, Symbol: "top", Index: -1}); err != nil {
		t.Fatal(err)
	}
	if len(top.Calls) != 1 {
		t.Fatalf("calls after delete = %d", len(top.Calls))
	}
}

func TestApplyEditErrors(t *testing.T) {
	d, tc := editDesign(t)
	cases := []struct {
		name string
		e    Edit
	}{
		{"unknown op", Edit{Op: "explode", Symbol: "top"}},
		{"unknown symbol", Edit{Op: OpAddBox, Symbol: "nope", Layer: tech.NMOSDiff, Box: []int64{0, 0, 1, 1}}},
		{"unknown layer", Edit{Op: OpAddBox, Symbol: "top", Layer: "unobtanium", Box: []int64{0, 0, 1, 1}}},
		{"short box", Edit{Op: OpAddBox, Symbol: "top", Layer: tech.NMOSDiff, Box: []int64{0, 0, 1}}},
		{"odd path", Edit{Op: OpAddWire, Symbol: "top", Layer: tech.NMOSDiff, Width: 100, Path: []int64{0, 0, 5}}},
		{"zero width", Edit{Op: OpAddWire, Symbol: "top", Layer: tech.NMOSDiff, Path: []int64{0, 0, 5, 0}}},
		{"element index", Edit{Op: OpDeleteElement, Symbol: "top", Index: 99}},
		{"element index negative", Edit{Op: OpMoveElement, Symbol: "top", Index: -9}},
		{"call index", Edit{Op: OpMoveCall, Symbol: "top", Index: 4}},
		{"call target", Edit{Op: OpAddCall, Symbol: "top", Target: "nope"}},
		{"bad orient", Edit{Op: OpAddCall, Symbol: "top", Target: "leaf", Orient: "R45"}},
		{"self call", Edit{Op: OpAddCall, Symbol: "top", Target: "top"}},
		{"call cycle", Edit{Op: OpAddCall, Symbol: "leaf", Target: "top"}},
	}
	before := hashesOf(d)[d.Top]
	for _, c := range cases {
		if err := ApplyEdit(d, tc, c.e); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if hashesOf(d)[d.Top] != before {
		t.Fatal("failed edits mutated the design")
	}
}

// TestEditDirtyPropagation locks the property the incremental engine rides
// on: applying an edit changes the edited symbol's content hash and, via
// subtree hashing, every ancestor's — and reverting restores both.
func TestEditDirtyPropagation(t *testing.T) {
	d, tc := editDesign(t)
	top, leaf := d.Top, d.Symbols()[0]
	h0 := hashesOf(d)

	if err := ApplyEdit(d, tc, Edit{Op: OpAddBox, Symbol: "leaf", Layer: tech.NMOSDiff, Box: []int64{500, 0, 700, 200}}); err != nil {
		t.Fatal(err)
	}
	h1 := hashesOf(d)
	if h1[leaf].Own == h0[leaf].Own || h1[top].Subtree == h0[top].Subtree {
		t.Fatal("edit did not propagate to hashes")
	}
	if h1[top].Own != h0[top].Own {
		t.Fatal("leaf edit changed top's own hash")
	}

	if err := ApplyEdit(d, tc, Edit{Op: OpDeleteElement, Symbol: "leaf", Index: -1}); err != nil {
		t.Fatal(err)
	}
	h2 := hashesOf(d)
	if h2[leaf] != h0[leaf] || h2[top] != h0[top] {
		t.Fatal("revert did not restore hashes")
	}
}

// TestEditJSONRoundTrip locks the wire format scripts are written in.
func TestEditJSONRoundTrip(t *testing.T) {
	src := `[{"op":"add_wire","symbol":"chip","layer":"poly","width":200,"path":[3200,-400,3200,400]},
	         {"op":"delete_element","symbol":"chip","index":-1}]`
	var edits []Edit
	if err := json.Unmarshal([]byte(src), &edits); err != nil {
		t.Fatal(err)
	}
	if len(edits) != 2 || edits[0].Op != OpAddWire || edits[0].Width != 200 || edits[1].Index != -1 {
		t.Fatalf("decoded %+v", edits)
	}
	out, err := json.Marshal(edits)
	if err != nil {
		t.Fatal(err)
	}
	var back []Edit
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i].Op != edits[i].Op || back[i].Symbol != edits[i].Symbol || back[i].Index != edits[i].Index {
			t.Fatalf("round trip changed edit %d: %+v vs %+v", i, back[i], edits[i])
		}
	}
}

// TestEditCoordinateBound pins the coordinate bound on every edit that
// places geometry: a box or wire past ±MaxCoord (a wire's half-width
// included), a move that would leave it or wrap, and a call offset past it
// are refused as too large and leave the design as it was; geometry
// exactly at the bound is accepted.
func TestEditCoordinateBound(t *testing.T) {
	const m = MaxCoord
	refused := []struct {
		name string
		e    Edit
	}{
		{"box at ±2^62", Edit{Op: OpAddBox, Symbol: "top", Layer: tech.NMOSMetal, Box: []int64{-1 << 62, -1 << 62, 1 << 62, 1 << 62}}},
		{"box at the int64 limits", Edit{Op: OpAddBox, Symbol: "top", Layer: tech.NMOSMetal, Box: []int64{math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64}}},
		{"box one past", Edit{Op: OpAddBox, Symbol: "top", Layer: tech.NMOSMetal, Box: []int64{0, 0, m + 1, 10}}},
		{"wire half-width past", Edit{Op: OpAddWire, Symbol: "top", Layer: tech.NMOSMetal, Width: 200, Path: []int64{0, 0, m, 0}}},
		{"wire width past", Edit{Op: OpAddWire, Symbol: "top", Layer: tech.NMOSMetal, Width: m + 1, Path: []int64{0, 0, 0, 0}}},
		{"move by MaxInt64", Edit{Op: OpMoveElement, Symbol: "top", Index: 0, DX: math.MaxInt64}},
		{"move by MinInt64", Edit{Op: OpMoveElement, Symbol: "top", Index: 1, DY: math.MinInt64}},
		{"move past", Edit{Op: OpMoveElement, Symbol: "top", Index: 0, DX: m}},
		{"call offset past", Edit{Op: OpAddCall, Symbol: "top", Target: "leaf", DX: m + 1}},
		{"call move by MaxInt64", Edit{Op: OpMoveCall, Symbol: "top", Index: 0, DY: math.MaxInt64}},
		{"call move past", Edit{Op: OpMoveCall, Symbol: "top", Index: 0, DX: m}},
	}
	d, tc := editDesign(t)
	before := hashesOf(d)[d.Top]
	for _, c := range refused {
		if err := ApplyEdit(d, tc, c.e); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, want ErrTooLarge", c.name, err)
		}
	}
	if hashesOf(d)[d.Top] != before {
		t.Fatal("refused edits mutated the design")
	}
	accepted := []Edit{
		{Op: OpAddBox, Symbol: "top", Layer: tech.NMOSMetal, Box: []int64{-m, -m, m, m}},
		{Op: OpAddWire, Symbol: "top", Layer: tech.NMOSMetal, Width: 200, Path: []int64{0, 0, m - 100, 0}},
		{Op: OpMoveElement, Symbol: "top", Index: -1, DX: -m + 100},
		{Op: OpAddCall, Symbol: "top", Target: "leaf", DX: -m, DY: m},
		{Op: OpMoveCall, Symbol: "top", Index: -1, DX: 2 * m, DY: -2 * m},
	}
	for _, e := range accepted {
		if err := ApplyEdit(d, tc, e); err != nil {
			t.Errorf("%s: %v", e.Op, err)
		}
	}
}
