package layout

import (
	"encoding/hex"
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

func TestContentHashSensitivity(t *testing.T) {
	base := func() (*Design, *Symbol) {
		d := NewDesign("s")
		s := d.MustSymbol("sym")
		s.AddBox(2, geom.R(0, 0, 100, 100), "n")
		d.Top = s
		return d, s
	}
	d0, s0 := base()
	h0 := d0.ContentHashes()[s0].Own

	edits := []func(s *Symbol){
		func(s *Symbol) { s.Elements[0].Box.X2 = 101 },          // geometry
		func(s *Symbol) { s.Elements[0].Layer = 3 },             // layer
		func(s *Symbol) { s.Elements[0].Net = "m" },             // declared net
		func(s *Symbol) { s.DeviceType = "NE" },                 // device decl
		func(s *Symbol) { s.Checked = true },                    // CHK flag
		func(s *Symbol) { s.AddBox(2, geom.R(0, 0, 1, 1), "") }, // new element
	}
	for i, edit := range edits {
		d, s := base()
		edit(s)
		if d.ContentHashes()[s].Own == h0 {
			t.Errorf("edit %d did not change the own hash", i)
		}
	}

	// Transform and call-name changes move only the subtree hash.
	d1, top1, mid1, _ := buildHashFixture(t)
	h1 := d1.ContentHashes()
	mid1.Calls[0].T = geom.Translate(geom.Pt(1001, 0))
	h2 := d1.ContentHashes()
	if h1[mid1].Subtree == h2[mid1].Subtree {
		t.Fatal("call transform edit did not change subtree hash")
	}
	if h1[mid1].Own != h2[mid1].Own {
		t.Fatal("call transform edit changed own hash")
	}
	if h1[top1].Subtree == h2[top1].Subtree {
		t.Fatal("call transform edit did not propagate to top")
	}
}

func TestCallersAndDirtyClosure(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	callers := d.Callers()
	if got := callers[leaf]; len(got) != 1 || got[0] != mid {
		t.Fatalf("callers(leaf) = %v", got)
	}
	if got := callers[mid]; len(got) != 1 || got[0] != top {
		t.Fatalf("callers(mid) = %v", got)
	}
	dirty := d.DirtyClosure(leaf)
	for _, s := range []*Symbol{leaf, mid, top} {
		if !dirty[s] {
			t.Fatalf("%q missing from dirty closure", s.Name)
		}
	}
	if len(dirty) != 3 {
		t.Fatalf("dirty closure has %d symbols, want 3", len(dirty))
	}
	// A top-only edit dirties nothing below.
	dirty = d.DirtyClosure(top)
	if len(dirty) != 1 || !dirty[top] {
		t.Fatalf("dirty closure of top = %v", dirty)
	}
}

func TestDirtySymbols(t *testing.T) {
	d, top, mid, leaf := buildHashFixture(t)
	_, cur := d.DirtySymbols(nil)
	prev := make(map[string]Hash)
	for s, h := range cur {
		prev[s.Name] = h.Subtree
	}
	if dirty, _ := d.DirtySymbols(prev); len(dirty) != 0 {
		t.Fatalf("unedited design reports dirty symbols: %v", dirty)
	}
	leaf.AddBox(0, geom.R(1, 1, 2, 2), "")
	dirty, _ := d.DirtySymbols(prev)
	want := map[string]bool{leaf.Name: true, mid.Name: true, top.Name: true}
	if len(dirty) != len(want) {
		t.Fatalf("dirty = %v, want leaf+mid+top", dirty)
	}
	for _, s := range dirty {
		if !want[s.Name] {
			t.Fatalf("unexpected dirty symbol %q", s.Name)
		}
	}
	_ = top
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
