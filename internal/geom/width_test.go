package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWidthViolationsBasic(t *testing.T) {
	// A 10-wide wire passes w=10, fails w=11.
	wire := FromRectR(R(0, 0, 100, 10))
	if !MinWidthOK(wire, 10) {
		t.Fatal("10-wide wire must pass w=10")
	}
	if MinWidthOK(wire, 11) {
		t.Fatal("10-wide wire must fail w=11")
	}
	v := WidthViolations(wire, 11)
	if len(v) != 1 {
		t.Fatalf("violations = %d, want 1", len(v))
	}
	if v[0] != R(0, 0, 100, 10) {
		t.Fatalf("violation rect = %v", v[0])
	}
}

func TestWidthViolationsOddWidth(t *testing.T) {
	// Odd rule widths must be exact: a 7-wide wire passes 7 and fails 8.
	wire := FromRectR(R(0, 0, 50, 7))
	if !MinWidthOK(wire, 7) {
		t.Fatal("7-wide wire must pass w=7")
	}
	if MinWidthOK(wire, 8) {
		t.Fatal("7-wide wire must fail w=8")
	}
}

func TestWidthViolationLocalizedToNeck(t *testing.T) {
	// Dumbbell: two fat pads joined by a thin neck; only the neck flags.
	reg := FromRects([]Rect{
		R(0, 0, 20, 20),
		R(20, 8, 40, 12), // 4-wide neck
		R(40, 0, 60, 20),
	})
	if MinWidthOK(reg, 10) {
		t.Fatal("neck must violate w=10")
	}
	vs := WidthViolations(reg, 10)
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (%v)", len(vs), vs)
	}
	v := vs[0]
	if v.X1 < 18 || v.X2 > 42 || v.Y1 < 6 || v.Y2 > 14 {
		t.Fatalf("violation %v not localized to the neck", v)
	}
	// Pads remain clean under their own width.
	if !MinWidthOK(FromRectR(R(0, 0, 20, 20)), 20) {
		t.Fatal("pad should pass w=20")
	}
}

func TestWidthLegalLShapeNoCornerFalseError(t *testing.T) {
	// The orthogonal check must not flag the corner of a legal L — this is
	// exactly the pathology the Euclidean variant has (Figure 4).
	l := FromRects([]Rect{R(0, 0, 30, 10), R(0, 0, 10, 30)})
	if !MinWidthOK(l, 10) {
		t.Fatalf("legal L flagged: %v", WidthViolations(l, 10))
	}
}

func TestSkeletonBasics(t *testing.T) {
	// Skeleton of an exactly-minimum-width wire is its medial line,
	// represented on the 4x grid as a quarter-unit fattened strip.
	wire := FromRectR(R(0, 0, 40, 10))
	sk := Skeleton(wire, 10)
	if sk.Empty() {
		t.Fatal("skeleton of legal wire must be non-empty")
	}
	if got := sk.Bounds(); got != R(19, 19, 141, 21) {
		t.Fatalf("skeleton bounds = %v", got)
	}
	narrow := FromRectR(R(0, 0, 40, 4))
	if !Skeleton(narrow, 10).Empty() {
		t.Fatal("skeleton of sub-minimum wire must be empty")
	}
}

func TestSkeletalConnectivityFigure11(t *testing.T) {
	// Two overlapping legal wires whose overlap is at least the minimum
	// width: skeletons (medial lines) overlap — connected.
	a := FromRectR(R(0, 0, 40, 10))
	b := FromRectR(R(30, 0, 70, 10))
	if !SkeletalConnected(a, b, 10) {
		t.Fatal("deep overlap must be skeletally connected")
	}
	// Barely corner-overlapping wires: skeletons do not touch.
	c := FromRectR(R(38, 8, 80, 18))
	if SkeletalConnected(a, c, 10) {
		t.Fatal("shallow corner overlap must not be skeletally connected")
	}
	// Abutting end-to-end wires: medial lines are half a width apart. Per
	// the paper's self-sufficiency rule (Figure 15), butting is NOT a legal
	// connection — overlap is required.
	d := FromRectR(R(40, 0, 80, 10))
	if SkeletalConnected(a, d, 10) {
		t.Fatal("abutting wires must not be skeletally connected (Figure 15)")
	}
	// Overlap of exactly the minimum width: skeleton endpoints touch.
	e := FromRectR(R(30, 0, 70, 10))
	if !SkeletalConnected(a, e, 10) {
		t.Fatal("overlap of one minimum width must connect")
	}
	// Disjoint wires: not connected.
	g := FromRectR(R(50, 20, 90, 30))
	if SkeletalConnected(a, g, 10) {
		t.Fatal("disjoint wires must not be skeletally connected")
	}
	// Enclosure: a small legal element fully inside a large one.
	big := FromRectR(R(0, 0, 100, 100))
	small := FromRectR(R(30, 30, 60, 60))
	if !SkeletalConnected(big, small, 10) {
		t.Fatal("enclosed element must be skeletally connected")
	}
}

// Property (the paper's skeletal-connectivity invariant, Figure 11): if two
// elements are each of legal width and are skeletally connected, then their
// union is of legal width.
func TestQuickSkeletalInvariant(t *testing.T) {
	const w = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Region {
			x := int64(rng.Intn(30))
			y := int64(rng.Intn(30))
			wd := int64(w + rng.Intn(20))
			ht := int64(w + rng.Intn(20))
			return FromRectR(Rect{x, y, x + wd, y + ht})
		}
		a, b := mk(), mk()
		if !MinWidthOK(a, w) || !MinWidthOK(b, w) {
			return true // precondition violated, skip
		}
		if !SkeletalConnected(a, b, w) {
			return true
		}
		return MinWidthOK(a.Union(b), w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpacingViolations(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	b := FromRectR(R(13, 0, 23, 10)) // gap 3
	if got := SpacingViolations(a, b, 3); len(got) != 0 {
		t.Fatalf("gap 3 vs rule 3: violations %v, want none", got)
	}
	if got := SpacingViolations(a, b, 4); len(got) != 1 {
		t.Fatalf("gap 3 vs rule 4: violations %d, want 1", len(got))
	}
	// Orthogonal expand-check-overlap flags diagonal pairs at L∞ < s even
	// when Euclidean distance >= s (Figure 4 corner pathology).
	c := FromRectR(R(13, 14, 23, 24)) // gaps 3,4; Euclidean 5, L∞ 4
	if got := SpacingViolations(a, c, 5); len(got) != 1 {
		t.Fatalf("diagonal pair: orthogonal check should flag, got %d", len(got))
	}
	if d, _, _ := RegionDist(a, c); d != 5 {
		t.Fatalf("Euclidean distance = %v, want 5 (no true violation)", d)
	}
}

func TestSpacingEmptyAndZero(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	if got := SpacingViolations(a, EmptyRegion(), 5); got != nil {
		t.Fatal("empty region should produce no violations")
	}
	if got := SpacingViolations(a, a, 0); got != nil {
		t.Fatal("zero spacing rule should produce no violations")
	}
}

func TestWidthViolationsEmpty(t *testing.T) {
	if got := WidthViolations(EmptyRegion(), 5); got != nil {
		t.Fatal("empty region has no violations")
	}
	if !MinWidthOK(EmptyRegion(), 5) {
		t.Fatal("empty region is vacuously legal")
	}
}
