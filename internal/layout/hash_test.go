package layout

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// buildHashFixture returns a three-level design: top -> mid -> leaf.
func buildHashFixture(t *testing.T) (*Design, *Symbol, *Symbol, *Symbol) {
	t.Helper()
	d := NewDesign("hashfix")
	leaf := d.MustSymbol("leaf")
	leaf.AddBox(0, geom.R(0, 0, 500, 500), "a")
	mid := d.MustSymbol("mid")
	mid.AddCall(leaf, geom.Translate(geom.Pt(1000, 0)), "l0")
	mid.AddWire(1, 250, "", geom.Pt(0, 0), geom.Pt(2000, 0))
	top := d.MustSymbol("top")
	top.AddCall(mid, geom.Identity, "m0")
	top.AddCall(mid, geom.NewTransform(geom.R90, geom.Pt(0, 5000)), "m1")
	d.Top = top
	return d, top, mid, leaf
}

// scratchOrder, scratchValidate and scratchHashes are the oracle for the
// memoised call graph and the cached hashes: the walks and the bottom-up
// hashing pass as they were before anything was cached — every call redoes
// everything from the design as it stands, so no Touch can be missing from
// their answer.
func scratchOrder(d *Design) []*Symbol {
	var order []*Symbol
	seen := make(map[*Symbol]bool)
	var visit func(s *Symbol)
	visit = func(s *Symbol) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, c := range s.Calls {
			visit(c.Target)
		}
		order = append(order, s)
	}
	if d.Top != nil {
		visit(d.Top)
	}
	return order
}

func scratchValidate(d *Design) error {
	if d.Top == nil {
		return fmt.Errorf("layout: design %q has no top symbol", d.Name)
	}
	state := make(map[*Symbol]int) // 0 unvisited, 1 in-stack, 2 done
	var visit func(s *Symbol) error
	visit = func(s *Symbol) error {
		switch state[s] {
		case 1:
			return fmt.Errorf("layout: recursive call cycle through symbol %q", s.Name)
		case 2:
			return nil
		}
		state[s] = 1
		if s.IsPrimitive() && len(s.Calls) > 0 {
			return fmt.Errorf("layout: primitive device symbol %q contains calls", s.Name)
		}
		for _, c := range s.Calls {
			if c.Target == nil {
				return fmt.Errorf("layout: symbol %q calls nil target", s.Name)
			}
			if d.byName[c.Target.Name] != c.Target {
				return fmt.Errorf("layout: symbol %q calls unregistered symbol %q", s.Name, c.Target.Name)
			}
			if err := visit(c.Target); err != nil {
				return err
			}
		}
		state[s] = 2
		return nil
	}
	return visit(d.Top)
}

func scratchHashes(d *Design) map[*Symbol]SymbolHashes {
	out := make(map[*Symbol]SymbolHashes)
	var w hashWriter
	for _, s := range scratchOrder(d) { // callees first
		own := hashOwn(&w, s)
		w.hash(own)
		w.int64(int64(len(s.Calls)))
		for _, c := range s.Calls {
			w.str(c.Name)
			w.int64(int64(c.T.Orient))
			w.point(c.T.Trans)
			w.hash(out[c.Target].Subtree)
		}
		out[s] = SymbolHashes{Own: own, Subtree: w.final()}
	}
	return out
}

// requireScratchEqual compares the cached hashes, order and verdict of d
// with the oracle's.
func requireScratchEqual(t *testing.T, label string, d *Design) {
	t.Helper()
	if got, want := d.Validate(), scratchValidate(d); (got == nil) != (want == nil) {
		t.Fatalf("%s: Validate = %v, from scratch %v", label, got, want)
	} else if want != nil {
		return
	}
	if got, want := d.SortedSymbols(), scratchOrder(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SortedSymbols has %d symbols, from scratch %d, or another order", label, len(got), len(want))
	}
	got, want := d.ContentHashes(), scratchHashes(d)
	if len(got) != len(want) {
		t.Fatalf("%s: %d cached hashes, %d from scratch", label, len(got), len(want))
	}
	for s, h := range want {
		if got[s] != h {
			t.Fatalf("%s: cached hashes of %q are stale: %v/%v, from scratch %v/%v",
				label, s.Name, got[s].Own, got[s].Subtree, h.Own, h.Subtree)
		}
	}
}

func TestContentHashesStable(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	h1 := d.ContentHashes()
	h2 := d.ContentHashes()
	for _, s := range []*Symbol{top, mid, leaf} {
		if h1[s] != h2[s] {
			t.Fatalf("hash of %q not stable across calls", s.Name)
		}
	}
	// An identically-built design hashes identically.
	d2, top2, _, _ := buildHashFixture(t)
	if d.ContentHashes()[top].Subtree != d2.ContentHashes()[top2].Subtree {
		t.Fatal("identical designs hash differently")
	}
}

func TestContentHashesPropagateUp(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	before := d.ContentHashes()
	// Edit the leaf: every ancestor's subtree hash must change; own hashes
	// of the ancestors must not.
	leaf.AddBox(0, geom.R(600, 600, 900, 900), "")
	after := d.ContentHashes()
	if before[leaf].Own == after[leaf].Own {
		t.Fatal("leaf own hash unchanged after edit")
	}
	for _, s := range []*Symbol{mid, top} {
		if before[s].Subtree == after[s].Subtree {
			t.Fatalf("%q subtree hash unchanged after leaf edit", s.Name)
		}
		if before[s].Own != after[s].Own {
			t.Fatalf("%q own hash changed by a leaf edit", s.Name)
		}
	}
}

// TestContentHashSensitivity: everything the checker's output depends on is
// content. Each mutation must move the hash computed from scratch, and the
// cached hash too — a geometry, layer or net write once the symbol is
// touched (the Touch contract), a write to one of the stamped scalars
// (DeviceType, Checked, the element count) on its own.
func TestContentHashSensitivity(t *testing.T) {
	base := func() (*Design, *Symbol) {
		d := NewDesign("s")
		s := d.MustSymbol("sym")
		s.AddBox(2, geom.R(0, 0, 100, 100), "n")
		d.Top = s
		return d, s
	}
	edits := []struct {
		what  string
		touch bool
		edit  func(s *Symbol)
	}{
		{"geometry", true, func(s *Symbol) { s.Elements[0].Box.X2 = 101 }},
		{"layer", true, func(s *Symbol) { s.Elements[0].Layer = 3 }},
		{"declared net", true, func(s *Symbol) { s.Elements[0].Net = "m" }},
		{"device decl", false, func(s *Symbol) { s.DeviceType = "NE" }},
		{"CHK flag", false, func(s *Symbol) { s.Checked = true }},
		{"new element", false, func(s *Symbol) { s.AddBox(2, geom.R(0, 0, 1, 1), "") }},
		{"element count", false, func(s *Symbol) { s.Elements = s.Elements[:0] }},
	}
	for _, e := range edits {
		d, s := base()
		h0 := d.ContentHashes()[s].Own
		if scratchHashes(d)[s].Own != h0 {
			t.Fatalf("%s: cached and from-scratch hashes differ before the edit", e.what)
		}
		e.edit(s)
		if scratchHashes(d)[s].Own == h0 {
			t.Errorf("%s edit did not change the own hash", e.what)
		}
		if e.touch {
			s.Touch()
		}
		if d.ContentHashes()[s].Own == h0 {
			t.Errorf("%s edit did not change the cached own hash", e.what)
		}
		requireScratchEqual(t, e.what, d)
	}

	// Transform and call-name changes move only the subtree hash.
	d1, top1, mid1, _ := buildHashFixture(t)
	h1 := d1.ContentHashes()
	mid1.Calls[0].T = geom.Translate(geom.Pt(1001, 0))
	if scratchHashes(d1)[mid1].Subtree == h1[mid1].Subtree {
		t.Fatal("call transform edit did not change subtree hash")
	}
	mid1.Touch()
	h2 := d1.ContentHashes()
	if h1[mid1].Subtree == h2[mid1].Subtree {
		t.Fatal("call transform edit did not change cached subtree hash")
	}
	if h1[mid1].Own != h2[mid1].Own {
		t.Fatal("call transform edit changed own hash")
	}
	if h1[top1].Subtree == h2[top1].Subtree {
		t.Fatal("call transform edit did not propagate to top")
	}
	requireScratchEqual(t, "call transform", d1)
}

// TestCallersAndDirtyClosure: the memoised reverse call graph lists each
// symbol's distinct callers, and an edit re-hashes exactly its closure
// under it — the edited symbol and every transitive caller.
func TestCallersAndDirtyClosure(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	callers := d.callGraph().callers
	if got := callers[leaf]; len(got) != 1 || got[0] != mid {
		t.Fatalf("callers(leaf) = %v", got)
	}
	if got := callers[mid]; len(got) != 1 || got[0] != top {
		t.Fatalf("callers(mid) = %v", got) // two calls, one caller
	}
	_, _, mark := d.HashesSince(HashMark{})
	leaf.Elements[0].Box.X2++
	leaf.TouchElement(0, leaf.Elements[0].Box)
	_, dirty, mark := d.HashesSince(mark)
	if !reflect.DeepEqual(dirty, []*Symbol{leaf, mid, top}) {
		t.Fatalf("leaf edit re-hashed %v, want leaf, mid, top", dirty)
	}
	// A top-only edit dirties nothing below.
	top.Touch()
	if _, dirty, _ = d.HashesSince(mark); !reflect.DeepEqual(dirty, []*Symbol{top}) {
		t.Fatalf("top edit re-hashed %v, want top alone", dirty)
	}
}

// TestDirtySymbols: HashesSince lists what was re-hashed after the caller's
// mark, whoever triggered the re-hash — every symbol for the zero mark or
// another design's, nothing for an unedited design.
func TestDirtySymbols(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	cur, dirty, mark := d.HashesSince(HashMark{})
	if len(dirty) != 3 || len(cur) != 3 {
		t.Fatalf("first pass re-hashed %v of %d symbols, want all 3", dirty, len(cur))
	}
	if _, dirty, _ := d.HashesSince(mark); len(dirty) != 0 {
		t.Fatalf("unedited design reports dirty symbols: %v", dirty)
	}
	leaf.AddBox(0, geom.R(1, 1, 2, 2), "")
	d.ContentHashes() // another consumer gets there first
	next, dirty, _ := d.HashesSince(mark)
	if !reflect.DeepEqual(dirty, []*Symbol{leaf, mid, top}) {
		t.Fatalf("dirty = %v, want leaf+mid+top", dirty)
	}
	if cur[leaf] == next[leaf] || cur[top] == next[top] {
		t.Fatal("the edit moved no hash, or rewrote the map handed out before it")
	}
	d2, _, _, _ := buildHashFixture(t)
	_, _, foreign := d2.HashesSince(HashMark{})
	if _, dirty, _ := d.HashesSince(foreign); len(dirty) != 3 {
		t.Fatalf("another design's mark lists %v, want all 3", dirty)
	}
}

// TestContentHashesGolden pins three content addresses to the values the
// original one-Write-per-scalar hasher produced: the framing (fixed-width
// little-endian scalars, length-prefixed strings) is the on-disk identity
// of every cached artifact, so a faster hasher must feed sha256 the very
// same bytes.
func TestContentHashesGolden(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	leaf.DeviceType, leaf.Checked = "nfet", true
	leaf.AddPolygon(2, geom.Polygon{{X: -300, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 700}, {X: -300, Y: 700}}, "gate")
	h := d.ContentHashes()
	for _, c := range []struct {
		what string
		got  Hash
		want string
	}{
		{"leaf own", h[leaf].Own, "3b2c612623a7d7fc4f1b374666a5051dfdceb18aa48da04fdae85a3930b72e41"},
		{"mid subtree", h[mid].Subtree, "67103b7b4f105f8e2b9d9239ffa2a5070ed03e29013a55b0b69cc2bc54dabb08"},
		{"top subtree", h[top].Subtree, "78fc77e33fcf1383815d3f1a2adabca0667b8f70295f7122fa22a012cde89bae"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s hash = %s, want %s", c.what, got, c.want)
		}
	}
}
