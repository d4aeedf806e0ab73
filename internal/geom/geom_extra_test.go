package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: X/Y-separable dilation equals square dilation when dx==dy, and
// ErodeXY is its adjoint.
func TestQuickDilateXYConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRegion(rng, 6)
		d := int64(1 + rng.Intn(4))
		if !a.Dilate(d).Equal(a.DilateXY(d, d)) {
			return false
		}
		if !a.Erode(d).Equal(a.ErodeXY(d, d)) {
			return false
		}
		// Asymmetric round trip on a solid rect is exact.
		r := FromRectR(R(0, 0, 20+int64(rng.Intn(20)), 20+int64(rng.Intn(20))))
		dx, dy := int64(1+rng.Intn(4)), int64(1+rng.Intn(4))
		return r.DilateXY(dx, dy).ErodeXY(dx, dy).Equal(r)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: Manhattan transforms preserve area and compose correctly on
// regions.
func TestQuickRegionTransformArea(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRegion(rng, 6)
		o := Orient(rng.Intn(8))
		tr := NewTransform(o, Pt(int64(rng.Intn(100)-50), int64(rng.Intn(100)-50)))
		b := a.TransformBy(tr)
		if b.Area() != a.Area() {
			return false
		}
		// Applying the inverse restores the original.
		return b.TransformBy(tr.Inverse()).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: containment (s ⊆ r iff s \ r is empty) is reflexive, holds for
// a subset and fails for a proper superset.
func TestQuickContainsRegion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRegion(rng, 6)
		b := a.Intersect(randomRegion(rng, 6))
		if !a.Subtract(a).Empty() || !b.Subtract(a).Empty() {
			return false
		}
		if !b.Empty() && !b.Equal(a) && a.Subtract(b).Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestClip(t *testing.T) {
	a := FromRects([]Rect{R(0, 0, 10, 10), R(20, 0, 30, 10)})
	c := a.Clip(R(5, 0, 25, 10))
	if c.Area() != 5*10+5*10 {
		t.Fatalf("clip area = %d", c.Area())
	}
	if !a.Clip(R(100, 100, 110, 110)).Empty() {
		t.Fatal("out-of-range clip should be empty")
	}
}

// Property: width violations are monotone in the rule: if a region passes
// w, it passes every smaller w.
func TestQuickWidthMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRegion(rng, 5)
		w := int64(2 + rng.Intn(10))
		if MinWidthOK(a, w) {
			return MinWidthOK(a, w-1)
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: spacing violations vanish when the regions are translated
// apart by at least the rule distance.
func TestQuickSpacingTranslation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromRectR(R(0, 0, int64(5+rng.Intn(20)), int64(5+rng.Intn(20))))
		s := int64(2 + rng.Intn(6))
		b := a.Translate(Pt(a.Bounds().W()+s, 0))
		return len(SpacingViolations(a, b, s)) == 0 &&
			len(SpacingViolations(a, b, s+1)) == 1
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: Skeleton is monotone in the region — a larger region has a
// larger skeleton.
func TestQuickSkeletonMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRegion(rng, 4)
		b := a.Union(randomRegion(rng, 4))
		w := int64(2 + rng.Intn(5))
		sa, sb := Skeleton(a, w), Skeleton(b, w)
		return sa.Subtract(sb).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestOrthoDistZeroOnTouch(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	b := FromRectR(R(10, 0, 20, 10))
	if d := RegionOrthoDist(a, b); d != 0 {
		t.Fatalf("touching ortho dist = %d", d)
	}
	d, _, _ := RegionDist(a, b)
	if d != 0 {
		t.Fatalf("touching euclid dist = %v", d)
	}
}
