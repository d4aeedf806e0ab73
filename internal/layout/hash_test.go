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

// hashesOf runs the hashing pass and collects every reachable symbol's
// Symbol.Hashes.
func hashesOf(d *Design) map[*Symbol]SymbolHashes {
	d.ContentHashes()
	out := make(map[*Symbol]SymbolHashes)
	for _, s := range d.SortedSymbols() {
		out[s] = s.Hashes()
	}
	return out
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
	got, want := make(map[*Symbol]SymbolHashes), scratchHashes(d)
	for _, s := range d.SortedSymbols() {
		got[s] = s.Hashes() // no pass asked for: Hashes runs it if due
	}
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
	h1 := hashesOf(d)
	h2 := hashesOf(d)
	for _, s := range []*Symbol{top, mid, leaf} {
		if h1[s] != h2[s] {
			t.Fatalf("hash of %q not stable across calls", s.Name)
		}
	}
	// An identically-built design hashes identically.
	d2, top2, _, _ := buildHashFixture(t)
	if hashesOf(d)[top].Subtree != hashesOf(d2)[top2].Subtree {
		t.Fatal("identical designs hash differently")
	}
}

func TestContentHashesPropagateUp(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	before := hashesOf(d)
	// Edit the leaf: every ancestor's subtree hash must change; own hashes
	// of the ancestors must not.
	leaf.AddBox(0, geom.R(600, 600, 900, 900), "")
	after := hashesOf(d)
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
		h0 := hashesOf(d)[s].Own
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
		if hashesOf(d)[s].Own == h0 {
			t.Errorf("%s edit did not change the cached own hash", e.what)
		}
		requireScratchEqual(t, e.what, d)
	}

	// Transform and call-name changes move only the subtree hash.
	d1, top1, mid1, _ := buildHashFixture(t)
	h1 := hashesOf(d1)
	mid1.Calls[0].T = geom.Translate(geom.Pt(1001, 0))
	if scratchHashes(d1)[mid1].Subtree == h1[mid1].Subtree {
		t.Fatal("call transform edit did not change subtree hash")
	}
	mid1.Touch()
	h2 := hashesOf(d1)
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

	// A rename moves neither hash, of the symbol or of its callers: the
	// name is not content. Two symbols that draw the same thing under
	// different names hash alike.
	d2, top2, mid2, leaf2 := buildHashFixture(t)
	h3 := hashesOf(d2)
	d2.Rename(mid2, "mid-renamed")
	d2.Rename(leaf2, "leaf-renamed")
	h4 := hashesOf(d2)
	for _, s := range []*Symbol{top2, mid2, leaf2} {
		if h3[s] != h4[s] {
			t.Fatalf("renaming moved the hashes of %q", s.Name)
		}
	}
	requireScratchEqual(t, "rename", d2)
	twin := d2.MustSymbol("twin")
	twin.AddBox(0, geom.R(0, 0, 500, 500), "a")
	top2.AddCall(twin, geom.Identity, "t0")
	if twin.Hashes() != leaf2.Hashes() {
		t.Fatal("a twin drawing the same box under another name hashes differently")
	}
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
	leaf.TouchElement(0)
	rehashed, moved, mark := d.HashesSince(mark)
	if rehashed != 3 || moved != 3 {
		t.Fatalf("leaf edit re-hashed %d and moved %d, want leaf, mid, top", rehashed, moved)
	}
	// A top-only edit re-hashes nothing below.
	top.AddBox(0, geom.R(0, 0, 1, 1), "")
	if rehashed, moved, _ = d.HashesSince(mark); rehashed != 1 || moved != 1 {
		t.Fatalf("top edit re-hashed %d and moved %d, want top alone", rehashed, moved)
	}
}

// TestDirtySymbols: HashesSince counts what was re-hashed after the
// caller's mark, and what of it moved its subtree hash, whoever triggered
// the re-hash — every symbol for the zero mark or another design's,
// nothing for an unedited design, a re-hash but no move for a touch that
// changed nothing, and a move for a symbol that sat a pass out.
func TestDirtySymbols(t *testing.T) {
	d, top, _, leaf := buildHashFixture(t)
	rehashed, moved, mark := d.HashesSince(HashMark{})
	if rehashed != 3 || moved != 3 {
		t.Fatalf("first pass re-hashed %d and moved %d, want all 3", rehashed, moved)
	}
	if rehashed, moved, _ := d.HashesSince(mark); rehashed != 0 || moved != 0 {
		t.Fatalf("unedited design re-hashed %d and moved %d", rehashed, moved)
	}
	before := top.Hashes()
	leaf.AddBox(0, geom.R(1, 1, 2, 2), "")
	d.ContentHashes() // another consumer gets there first
	if rehashed, moved, mark = d.HashesSince(mark); rehashed != 3 || moved != 3 {
		t.Fatalf("leaf edit re-hashed %d and moved %d, want leaf+mid+top", rehashed, moved)
	}
	if top.Hashes() == before {
		t.Fatal("the edit moved no hash")
	}
	leaf.Touch() // an edit number moves, the content does not
	if rehashed, moved, mark = d.HashesSince(mark); rehashed != 1 || moved != 0 {
		t.Fatalf("empty touch re-hashed %d and moved %d, want 1 and 0", rehashed, moved)
	}
	d.Top = leaf
	d.ContentHashes() // top and mid sit this pass out
	d.Top = top
	if rehashed, moved, _ = d.HashesSince(mark); rehashed != 2 || moved != 2 {
		t.Fatalf("rejoining symbols re-hashed %d and moved %d, want top and mid", rehashed, moved)
	}
	d2, _, _, _ := buildHashFixture(t)
	_, _, foreign := d2.HashesSince(HashMark{})
	if rehashed, moved, _ := d.HashesSince(foreign); rehashed != 3 || moved != 3 {
		t.Fatalf("another design's mark counts %d re-hashed and %d moved, want all 3", rehashed, moved)
	}
}

// TestHashesFollowEdits: Symbol.Hashes never answers with hashes older than
// the last touched edit, with no hashing pass asked for in between — an
// element moved deep in the hierarchy, a call added, the top swapped.
func TestHashesFollowEdits(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	if got, want := top.Hashes(), scratchHashes(d)[top]; got != want {
		t.Fatal("first read is not the from-scratch hash")
	}
	leaf.Elements[0].Box.X2++
	leaf.TouchElement(0)
	for _, s := range []*Symbol{top, mid, leaf} {
		if got, want := s.Hashes(), scratchHashes(d)[s]; got != want {
			t.Fatalf("%q after an element move: stale hashes", s.Name)
		}
	}
	spare := d.MustSymbol("spare")
	spare.AddBox(0, geom.R(0, 0, 10, 10), "")
	mid.AddCall(spare, geom.Identity, "s0")
	if got, want := top.Hashes(), scratchHashes(d)[top]; got != want {
		t.Fatal("top after a call added below: stale hashes")
	}
	if got, want := spare.Hashes(), scratchHashes(d)[spare]; got != want {
		t.Fatal("a symbol new to the hierarchy: stale hashes")
	}
	d.Top = mid
	leaf.Elements[0].Box.X2++
	leaf.TouchElement(0)
	mid.Hashes() // top sits this pass out
	d.Top = top
	if got, want := top.Hashes(), scratchHashes(d)[top]; got != want {
		t.Fatal("a symbol that sat a pass out: stale hashes")
	}
}

// TestContentHashesGolden pins three content addresses: the framing
// (fixed-width little-endian scalars, length-prefixed strings) is the
// identity of every cached artifact, so a faster hasher must feed sha256
// the very same bytes. The values are those of the one-Write-per-scalar
// framing with the symbol's name left out of the own hash.
func TestContentHashesGolden(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	leaf.DeviceType, leaf.Checked = "nfet", true
	leaf.AddPolygon(2, geom.Polygon{{X: -300, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 700}, {X: -300, Y: 700}}, "gate")
	h := hashesOf(d)
	for _, c := range []struct {
		what string
		got  Hash
		want string
	}{
		{"leaf own", h[leaf].Own, "73694d9ccc40f024b5e3d14f851a78b6e2bceec6b2b327943fe92d2f391d2952"},
		{"mid subtree", h[mid].Subtree, "e3208d2e919782590b028b05d13e4d6def77b4dab6a9301a3a29ad5d94c6cdac"},
		{"top subtree", h[top].Subtree, "3a611cbba2ce2fa89d96feacd8769c7ae6f5f2e7b84ee9ccfbb6c99070b64fdc"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s hash = %s, want %s", c.what, got, c.want)
		}
	}
}
