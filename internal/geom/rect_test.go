package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectNormalization(t *testing.T) {
	r := R(10, 20, 3, 4)
	if r != (Rect{3, 4, 10, 20}) {
		t.Fatalf("R did not normalize: %v", r)
	}
}

func TestRectAccessors(t *testing.T) {
	r := R(1, 2, 11, 7)
	if r.W() != 10 || r.H() != 5 {
		t.Fatalf("W/H = %d/%d", r.W(), r.H())
	}
	if r.Area() != 50 {
		t.Fatalf("Area = %d", r.Area())
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	if got := a.Intersect(b); got != R(5, 5, 10, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Union(b); got != R(0, 0, 15, 15) {
		t.Fatalf("Union = %v", got)
	}
	c := R(20, 20, 30, 30)
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint rects should intersect to empty")
	}
	var empty Rect
	if got := empty.Union(a); got != a {
		t.Fatalf("empty Union identity = %v", got)
	}
}

func TestRectOverlapTouch(t *testing.T) {
	a := R(0, 0, 10, 10)
	if !a.Overlaps(R(9, 9, 20, 20)) {
		t.Fatal("overlapping corner should overlap")
	}
	if a.Overlaps(R(10, 0, 20, 10)) {
		t.Fatal("edge-sharing rects do not overlap (open interiors)")
	}
	if !a.Touches(R(10, 0, 20, 10)) {
		t.Fatal("edge-sharing rects touch")
	}
	if !a.Touches(R(10, 10, 20, 20)) {
		t.Fatal("corner-sharing rects touch")
	}
	if a.Touches(R(11, 11, 20, 20)) {
		t.Fatal("separated rects must not touch")
	}
}

func TestRectDistances(t *testing.T) {
	a := R(0, 0, 10, 10)
	// Pure horizontal gap.
	if got := a.EuclideanDist(R(13, 0, 20, 10)); got != 3 {
		t.Fatalf("horizontal dist = %v", got)
	}
	// Diagonal gap 3,4 -> 5.
	if got := a.EuclideanDist(R(13, 14, 20, 20)); got != 5 {
		t.Fatalf("diagonal dist = %v, want 5", got)
	}
	// Orthogonal (L∞) distance for the same pair is max(3,4)=4: the
	// Figure 4 pathology — expand-check-overlap with s=5 would flag this
	// pair even though the true clearance is 5.
	if got := a.OrthogonalDist(R(13, 14, 20, 20)); got != 4 {
		t.Fatalf("orthogonal dist = %d, want 4", got)
	}
	if got := a.EuclideanDist(R(5, 5, 8, 8)); got != 0 {
		t.Fatalf("contained dist = %v", got)
	}
}

func TestClosestPoints(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(13, 14, 20, 20)
	pa, pb := a.ClosestPoints(b)
	if pa != Pt(10, 10) || pb != Pt(13, 14) {
		t.Fatalf("closest points = %v %v", pa, pb)
	}
	if got := pa.Dist(pb); got != 5 {
		t.Fatalf("dist between closest points = %v", got)
	}
}

func TestDistToPoint(t *testing.T) {
	r := R(0, 0, 10, 10)
	if got := r.DistToPoint(Pt(5, 5)); got != 0 {
		t.Fatalf("inside dist = %v", got)
	}
	if got := r.DistToPoint(Pt(13, 14)); got != 5 {
		t.Fatalf("corner dist = %v", got)
	}
	if got := r.DistToPoint(Pt(-3, 5)); got != 3 {
		t.Fatalf("edge dist = %v", got)
	}
}

// Property: EuclideanDist equals the brute-force min over corner/edge
// projections, validated against dense point sampling on small rects.
func TestQuickRectDistMatchesSampling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := R(int64(rng.Intn(10)), int64(rng.Intn(10)),
			int64(10+rng.Intn(10)), int64(10+rng.Intn(10)))
		b := R(int64(20+rng.Intn(10)), int64(rng.Intn(30)),
			int64(31+rng.Intn(10)), int64(31+rng.Intn(10)))
		got := a.EuclideanDist(b)
		best := math.Inf(1)
		for x := a.X1; x <= a.X2; x++ {
			for y := a.Y1; y <= a.Y2; y++ {
				if d := b.DistToPoint(Pt(x, y)); d < best {
					best = d
				}
			}
		}
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClosestPoints realize EuclideanDist.
func TestQuickClosestPointsRealizeDist(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := R(int64(rng.Intn(20)), int64(rng.Intn(20)),
			int64(rng.Intn(40)), int64(rng.Intn(40)))
		b := R(int64(rng.Intn(60)), int64(rng.Intn(60)),
			int64(rng.Intn(80)), int64(rng.Intn(80)))
		if a.Empty() || b.Empty() {
			return true
		}
		pa, pb := a.ClosestPoints(b)
		if !a.Touches(Rect{pa.X, pa.Y, pa.X, pa.Y}) || !b.Touches(Rect{pb.X, pb.Y, pb.X, pb.Y}) {
			return false
		}
		return math.Abs(pa.Dist(pb)-a.EuclideanDist(b)) < 1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestGapXY(t *testing.T) {
	a := R(0, 0, 10, 10)
	if g := a.GapX(R(15, 0, 20, 5)); g != 5 {
		t.Fatalf("GapX = %d", g)
	}
	if g := a.GapX(R(5, 20, 8, 25)); g != 0 {
		t.Fatalf("overlapping GapX = %d", g)
	}
	if g := a.GapY(R(0, -7, 5, -3)); g != 3 {
		t.Fatalf("GapY = %d", g)
	}
}
