package netlist

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// probedChip is a unique-row chip with one inert metal probe on its top,
// which a move of element -1 window-patches. Two calls give two designs of
// the same content, as two sessions parse one text.
func probedChip(tc *tech.Technology) *layout.Design {
	d := workload.NewChipUnique(tc, "tier", 4, 5).Design
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d.Top.AddBox(metal, geom.R(-15000, 0, -14250, 1000), "")
	return d
}

// extractCold extracts d through v and fails unless the result equals a
// cold extraction on a cache of its own.
func extractCold(t *testing.T, label string, d *layout.Design, tc *tech.Technology, v *Cache) *IncExtraction {
	t.Helper()
	inc, issues, err := ExtractIncremental(d, tc, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, fullIssues, err := ExtractIncremental(d, tc, NewCache(), 1)
	if err != nil {
		t.Fatal(err)
	}
	diffIssues(t, label, issues, fullIssues)
	diffExtractions(t, label, inc, full)
	return inc
}

// TestTierViewsShareValues: a second view over a tier extracts a design
// the first holds without building anything — the root artifact is the
// same value — and equals a cold extraction; a window edit of the first
// view's design is refused while the second holds the root, and patches
// once it is closed, leaving the second view's extraction as it was; with
// every view closed the tier is empty. A re-derive that retires a root
// another view holds leaves that view answering from it.
func TestTierViewsShareValues(t *testing.T) {
	tc := tech.NMOS()
	tier := NewTier()
	d1, d2 := probedChip(tc), probedChip(tc)
	v1, v2 := tier.NewCache(), tier.NewCache()

	inc1 := extractCold(t, "first view", d1, tc, v1)
	if taken, built := v1.Use(); taken.Total() != 0 || built.Artifacts == 0 || built.Spans == 0 {
		t.Fatalf("first view took %+v and built %+v; want nothing taken", taken, built)
	}
	inc2 := extractCold(t, "second view", d2, tc, v2)
	if taken, built := v2.Use(); built.Total() != 0 || taken.Artifacts != v1.Len() {
		t.Fatalf("second view took %+v and built %+v; want the first view's %d artifacts and nothing built", taken, built, v1.Len())
	}
	if inc1.Root != inc2.Root {
		t.Fatal("the second view built a root of its own")
	}
	entries := tier.Stats().Entries

	move := func(d *layout.Design, dy int64) {
		t.Helper()
		if err := layout.ApplyEdit(d, tc, layout.Edit{Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: dy}); err != nil {
			t.Fatal(err)
		}
	}
	move(d1, 250)
	if inc := extractCold(t, "shared root", d1, tc, v1); inc.Patch != nil || inc.Refused != RefuseRootShared {
		t.Fatalf("a window edit of a shared root: patched %v, refused %q; want %q", inc.Patch != nil, inc.Refused, RefuseRootShared)
	}
	// The second view follows and takes the root the first re-derived; a
	// structural edit of the first view's design retires that root, and
	// the second view still answers from it.
	move(d2, 250)
	inc2 = extractCold(t, "second view follows", d2, tc, v2)
	if err := layout.ApplyEdit(d1, tc, layout.Edit{Op: layout.OpDeleteElement, Symbol: d1.Top.Name, Index: 0}); err != nil {
		t.Fatal(err)
	}
	extractCold(t, "structural edit", d1, tc, v1)
	if inc := extractCold(t, "other view after the re-derive", d2, tc, v2); inc.Root != inc2.Root {
		t.Fatal("the second view lost its root")
	}
	v2.Close()
	move(d1, 250)
	if inc := extractCold(t, "own root", d1, tc, v1); inc.Patch == nil {
		t.Fatalf("a window edit of a root no other view holds was refused: %q", inc.Refused)
	}
	full, _, err := ExtractIncremental(d2, tc, NewCache(), 1)
	if err != nil {
		t.Fatal(err)
	}
	diffNetlists(t, "the closed view's netlist", inc2.Netlist, full.Netlist)

	if st := tier.Stats(); st.Views != 1 || st.Entries > entries+2*evictAge {
		t.Fatalf("one view left: %+v; want at most %d entries", st, entries+2*evictAge)
	}
	v1.Close()
	v1.Close() // a second close releases nothing twice
	if st := tier.Stats(); st.Entries != 0 || st.Views != 0 || st.Releases == 0 {
		t.Fatalf("every view closed: %+v; want an empty tier", st)
	}
}

// TestSlotPublishOnce: the first publish wins, later ones get its value,
// and only take empties the slot.
func TestSlotPublishOnce(t *testing.T) {
	var s Slot
	if s.Load() != nil {
		t.Fatal("a new slot holds a value")
	}
	a, b := new(int), new(int)
	if s.Publish(a) != a || s.Publish(b) != a || s.Load() != a {
		t.Fatal("the first publish did not win")
	}
	if s.take() != a || s.Load() != nil || s.Publish(b) != b {
		t.Fatal("take did not empty the slot")
	}
}
