package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContourOfRect(t *testing.T) {
	r := FromRectR(R(0, 0, 10, 5))
	loops := r.Contours()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	lp := loops[0]
	if len(lp) != 4 {
		t.Fatalf("vertices = %d, want 4 (%v)", len(lp), lp)
	}
	if lp.SignedArea2() <= 0 {
		t.Fatal("outer loop must be CCW")
	}
	if got := lp.Area(); got != 50 {
		t.Fatalf("loop area = %d", got)
	}
}

func TestContourOfLShape(t *testing.T) {
	l := FromRects([]Rect{R(0, 0, 30, 10), R(0, 0, 10, 30)})
	loops := l.Contours()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	lp := loops[0]
	if len(lp) != 6 {
		t.Fatalf("vertices = %d, want 6 (%v)", len(lp), lp)
	}
	convex, concave := CornerCounts(l)
	if convex != 5 || concave != 1 {
		t.Fatalf("corners = %d convex / %d concave, want 5/1", convex, concave)
	}
}

func TestContourOfDonut(t *testing.T) {
	outer := FromRectR(R(0, 0, 20, 20))
	donut := outer.Subtract(FromRectR(R(5, 5, 15, 15)))
	loops := donut.Contours()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2 (outer + hole)", len(loops))
	}
	var ccw, cw int
	var signed int64
	for _, lp := range loops {
		signed += lp.SignedArea2()
		if lp.SignedArea2() > 0 {
			ccw++
		} else {
			cw++
		}
	}
	if ccw != 1 || cw != 1 {
		t.Fatalf("windings = %d ccw / %d cw, want 1/1", ccw, cw)
	}
	if signed != 2*donut.Area() {
		t.Fatalf("signed loop area %d != 2*region area %d", signed, 2*donut.Area())
	}
}

func TestContourTwoComponents(t *testing.T) {
	r := FromRects([]Rect{R(0, 0, 5, 5), R(10, 10, 15, 15)})
	loops := r.Contours()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	for _, lp := range loops {
		if lp.SignedArea2() <= 0 {
			t.Fatal("both loops are outer boundaries, must be CCW")
		}
	}
}

func TestPerimeterValues(t *testing.T) {
	if got := Perimeter(FromRectR(R(0, 0, 10, 5))); got != 30 {
		t.Fatalf("rect perimeter = %d", got)
	}
	l := FromRects([]Rect{R(0, 0, 30, 10), R(0, 0, 10, 30)})
	if got := Perimeter(l); got != 120 {
		t.Fatalf("L perimeter = %d, want 120", got)
	}
}

func TestCornerCountsSquare(t *testing.T) {
	convex, concave := CornerCounts(FromRectR(R(0, 0, 10, 10)))
	if convex != 4 || concave != 0 {
		t.Fatalf("corners = %d/%d, want 4/0", convex, concave)
	}
}

// Property: for any random region, total signed contour area equals region
// area and convex-concave corner balance equals 4 per outer loop minus 4
// per hole (Euler relation for rectilinear polygons).
func TestQuickContourInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := randomRegion(rng, 6)
		loops := reg.Contours()
		var signed int64
		outers, holes := 0, 0
		for _, lp := range loops {
			signed += lp.SignedArea2()
			if lp.SignedArea2() > 0 {
				outers++
			} else {
				holes++
			}
		}
		if signed != 2*reg.Area() {
			return false
		}
		convex, concave := CornerCounts(reg)
		return convex-concave == 4*(outers-holes)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: reconstructing the region from its contours (outers minus
// holes) reproduces it exactly.
func TestQuickContourRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := randomRegion(rng, 6)
		rebuilt := EmptyRegion()
		var holes []Region
		for _, lp := range reg.Contours() {
			sub, err := FromPolygon(lp)
			if err != nil {
				return false
			}
			if lp.SignedArea2() > 0 {
				rebuilt = rebuilt.Union(sub)
			} else {
				holes = append(holes, sub)
			}
		}
		for _, h := range holes {
			rebuilt = rebuilt.Subtract(h)
		}
		return rebuilt.Equal(reg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestContourCornerCrossing(t *testing.T) {
	// Two squares sharing only a corner point: the stitcher must keep two
	// simple CCW loops rather than one self-intersecting bowtie.
	r := FromRects([]Rect{R(0, 0, 5, 5), R(5, 5, 10, 10)})
	loops := r.Contours()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	for _, lp := range loops {
		if lp.SignedArea2() <= 0 {
			t.Fatalf("loop not CCW: %v", lp)
		}
		if len(lp) != 4 {
			t.Fatalf("loop vertices = %d, want 4: %v", len(lp), lp)
		}
		if err := lp.Validate(); err != nil {
			t.Fatalf("loop invalid: %v", err)
		}
	}
	// The inverse: a frame with two corner-touching square holes.
	frame := FromRectR(R(-5, -5, 15, 15)).Subtract(r)
	holes := 0
	for _, lp := range frame.Contours() {
		if lp.SignedArea2() <= 0 {
			holes++
		}
	}
	if holes != 2 {
		t.Fatalf("hole loops = %d, want 2", holes)
	}
}
