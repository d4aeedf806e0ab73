package layout

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/tech"
)

// doublingDesign builds levels symbols, the first holding one metal box
// and each later one calling the previous twice: 2^levels-1 instances and
// 2^(levels-1) flattened boxes.
func doublingDesign(t *testing.T, levels int) (*Design, *tech.Technology) {
	t.Helper()
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := NewDesign("doubling")
	prev := d.MustSymbol("l1")
	prev.AddBox(metal, geom.R(0, 0, 400, 400), "")
	for i := 2; i <= levels; i++ {
		s := d.MustSymbol(fmt.Sprintf("l%d", i))
		s.AddCall(prev, geom.Translate(geom.Pt(0, 0)), "")
		s.AddCall(prev, geom.Translate(geom.Pt(int64(500)<<(i-2), 0)), "")
		prev = s
	}
	d.Top = prev
	return d, tc
}

// TestDesignSizeCap holds the flattened-size cap: a doubling hierarchy
// one level past it is refused by Validate, and an edit that would cross
// it is refused atomically — the design and its validity are unchanged.
func TestDesignSizeCap(t *testing.T) {
	if err := func() error { d, _ := doublingDesign(t, 23); return d.Validate() }(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^23-1 instances: Validate = %v, want ErrTooLarge", err)
	}
	if err := func() error { d, _ := doublingDesign(t, 40); return d.Validate() }(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^40-1 instances: Validate = %v, want ErrTooLarge (saturating)", err)
	}

	// 2^22-1 instances and 2^21 boxes: just inside the cap.
	d, tc := doublingDesign(t, 22)
	if err := d.Validate(); err != nil {
		t.Fatalf("design at the cap refused: %v", err)
	}
	ok := []Edit{
		{Op: OpAddCall, Symbol: "l22", Target: "l1", DX: -1000},                               // 2^22 instances
		{Op: OpAddBox, Symbol: "l22", Layer: tech.NMOSMetal, Box: []int64{0, 600, 400, 1000}}, // 2^21+2 boxes
		{Op: OpAddBox, Symbol: "orphan", Layer: tech.NMOSMetal, Box: []int64{0, 0, 400, 400}}, // unreachable: grows nothing
	}
	d.MustSymbol("orphan")
	for _, e := range ok {
		if err := ApplyEdit(d, tc, e); err != nil {
			t.Fatalf("%s on %s refused at the cap: %v", e.Op, e.Symbol, err)
		}
	}
	over := []Edit{
		{Op: OpAddBox, Symbol: "l1", Layer: tech.NMOSMetal, Box: []int64{0, 1200, 400, 1600}},
		{Op: OpAddWire, Symbol: "l1", Layer: tech.NMOSMetal, Width: 400, Path: []int64{0, 2000, 400, 2000}},
		{Op: OpAddCall, Symbol: "l22", Target: "l1", DX: -2000},
		{Op: OpAddCall, Symbol: "orphan", Target: "l21"}, // unreachable caller, then placed:
	}
	for _, e := range over[:3] {
		before := len(d.Top.Calls) + len(d.symbols[0].Elements) + len(d.symbols[1].Elements)
		if err := ApplyEdit(d, tc, e); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s on %s: err = %v, want ErrTooLarge", e.Op, e.Symbol, err)
		}
		if after := len(d.Top.Calls) + len(d.symbols[0].Elements) + len(d.symbols[1].Elements); after != before {
			t.Fatalf("%s on %s refused but applied", e.Op, e.Symbol)
		}
	}
	if err := ApplyEdit(d, tc, over[3]); err != nil {
		t.Fatalf("call from an unreachable symbol refused: %v", err)
	}
	if err := ApplyEdit(d, tc, Edit{Op: OpAddCall, Symbol: "l22", Target: "orphan", DX: 5000}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("placing a subtree past the cap: err = %v, want ErrTooLarge", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after refused edits: %v", err)
	}
}

// chainDesign builds levels symbols, the first holding one metal box and
// each later one calling the previous once: a hierarchy levels deep.
func chainDesign(levels int) (*Design, *tech.Technology) {
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := NewDesign("chain")
	prev := d.MustSymbol("l1")
	prev.AddBox(metal, geom.R(0, 0, 400, 400), "")
	for i := 2; i <= levels; i++ {
		s := d.MustSymbol(fmt.Sprintf("l%d", i))
		s.AddCall(prev, geom.Identity, "")
		prev = s
	}
	d.Top = prev
	return d, tc
}

// TestDesignDepthCap holds the hierarchy depth cap: a chain one level past
// it is refused by Validate (and one far past it without walking it), an
// add_call that would deepen a design past it is refused atomically, and
// so is one that would build an unplaced subtree past it.
func TestDesignDepthCap(t *testing.T) {
	for _, levels := range []int{maxDepth + 1, 1 << 16} {
		d, _ := chainDesign(levels)
		start := time.Now()
		if err := d.Validate(); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%d levels: Validate = %v, want ErrTooLarge", levels, err)
		}
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Fatalf("%d levels: refusal took %v", levels, el)
		}
	}
	d, tc := chainDesign(maxDepth)
	if err := d.Validate(); err != nil {
		t.Fatalf("design at the cap refused: %v", err)
	}
	if err := ApplyEdit(d, tc, Edit{Op: OpAddCall, Symbol: fmt.Sprintf("l%d", maxDepth), Target: "l2", DX: 1000}); err != nil {
		t.Fatalf("a call that does not deepen the design refused: %v", err)
	}
	leaf := d.MustSymbol("leaf")
	for _, e := range []Edit{
		{Op: OpAddCall, Symbol: "l1", Target: "leaf"},                         // the chain grows one level at the bottom
		{Op: OpAddCall, Symbol: "leaf", Target: fmt.Sprintf("l%d", maxDepth)}, // an unplaced subtree past the cap
	} {
		calls := len(d.symbols[0].Calls) + len(leaf.Calls)
		if err := ApplyEdit(d, tc, e); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("add_call %s -> %s: err = %v, want ErrTooLarge", e.Symbol, e.Target, err)
		}
		if len(d.symbols[0].Calls)+len(leaf.Calls) != calls {
			t.Fatalf("add_call %s -> %s refused but applied", e.Symbol, e.Target)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after refused edits: %v", err)
	}
}
