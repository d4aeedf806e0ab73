package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolygonAreaAndWinding(t *testing.T) {
	sq := Poly(0, 0, 10, 0, 10, 10, 0, 10)
	if got := sq.Area(); got != 100 {
		t.Fatalf("area = %d", got)
	}
	if sq.SignedArea2() <= 0 {
		t.Fatal("square given CCW should report CCW")
	}
	rev := Poly(0, 10, 10, 10, 10, 0, 0, 0)
	if rev.SignedArea2() > 0 {
		t.Fatal("reversed square should be CW")
	}
	if got := rev.Area(); got != 100 {
		t.Fatalf("area of CW square = %d", got)
	}
}

func TestPolygonBoundsEdges(t *testing.T) {
	l := Poly(0, 0, 30, 0, 30, 10, 10, 10, 10, 30, 0, 30)
	if got := l.Bounds(); got != R(0, 0, 30, 30) {
		t.Fatalf("bounds = %v", got)
	}
	if got := len(l.Edges()); got != 6 {
		t.Fatalf("edges = %d", got)
	}
	if !l.IsRectilinear() {
		t.Fatal("L should be rectilinear")
	}
	tri := Poly(0, 0, 10, 0, 5, 8)
	if tri.IsRectilinear() {
		t.Fatal("triangle should not be rectilinear")
	}
}

func TestPolygonToRectsL(t *testing.T) {
	l := Poly(0, 0, 30, 0, 30, 10, 10, 10, 10, 30, 0, 30)
	rects, err := l.ToRects()
	if err != nil {
		t.Fatal(err)
	}
	var area int64
	for _, r := range rects {
		area += r.Area()
	}
	if area != l.Area() {
		t.Fatalf("decomposed area %d != polygon area %d", area, l.Area())
	}
	reg := FromRects(rects)
	if reg.Area() != l.Area() {
		t.Fatalf("region area %d != polygon area %d (overlapping rects?)", reg.Area(), l.Area())
	}
}

func TestPolygonToRectsErrors(t *testing.T) {
	if _, err := Poly(0, 0, 10, 0, 5, 8).ToRects(); err == nil {
		t.Fatal("triangle must be rejected")
	}
	short := Polygon{Pt(0, 0), Pt(1, 0)}
	if _, err := short.ToRects(); err == nil {
		t.Fatal("2-vertex polygon must be rejected")
	}
	if _, err := Poly(0, 0, 10, 0, 10, 0, 10, 10, 0, 10).ToRects(); err == nil {
		t.Fatal("zero-length edge must be rejected")
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	l := Poly(0, 0, 30, 0, 30, 10, 10, 10, 10, 30, 0, 30)
	if !l.ContainsPoint(Pt(5, 5)) {
		t.Fatal("(5,5) should be inside the L")
	}
	if !l.ContainsPoint(Pt(25, 5)) {
		t.Fatal("(25,5) should be inside the L arm")
	}
	if l.ContainsPoint(Pt(20, 20)) {
		t.Fatal("(20,20) is in the L notch, outside")
	}
	if l.ContainsPoint(Pt(-5, 5)) {
		t.Fatal("(-5,5) is outside")
	}
}

func TestPolygonTransform(t *testing.T) {
	sq := Poly(0, 0, 10, 0, 10, 10, 0, 10)
	moved := sq.Translate(Pt(5, 5))
	if got := moved.Bounds(); got != R(5, 5, 15, 15) {
		t.Fatalf("translate bounds = %v", got)
	}
	rot := sq.TransformBy(NewTransform(R90, Pt(0, 0)))
	if got := rot.Area(); got != 100 {
		t.Fatalf("rotated area = %d", got)
	}
}

// Property: ToRects round-trips through Region with exact area, for random
// rectilinear polygons built as unions converted back via contours.
func TestQuickPolygonRegionAreaAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := randomRegion(rng, 5)
		loops := reg.Contours()
		// Sum of signed loop areas must equal region area (holes negative).
		var signed int64
		for _, lp := range loops {
			signed += lp.SignedArea2()
		}
		return signed == 2*reg.Area()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPerimeterRectilinear(t *testing.T) {
	sq := Poly(0, 0, 10, 0, 10, 10, 0, 10)
	if got := sq.PerimeterRectilinear(); got != 40 {
		t.Fatalf("perimeter = %d", got)
	}
}

func TestPolyPanicsOnOddCoords(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Poly with odd coords must panic")
		}
	}()
	Poly(1, 2, 3)
}
