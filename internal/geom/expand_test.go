package geom

import (
	"math"
	"testing"
)

func TestOrthogonalExpandPreservesCorners(t *testing.T) {
	// Figure 3: orthogonal expand of a square keeps square corners, so the
	// expanded area is exactly (w+2d)(h+2d).
	r := R(0, 0, 20, 20)
	d := int64(5)
	got := OrthogonalExpandArea(FromRectR(r), d)
	want := (r.W() + 2*d) * (r.H() + 2*d)
	if got != want {
		t.Fatalf("orthogonal expand area = %d, want %d", got, want)
	}
}

func TestEuclideanExpandAreaSquare(t *testing.T) {
	// Figure 3: Euclidean expand rounds corners — area is A + P·d + π·d².
	r := FromRectR(R(0, 0, 20, 20))
	d := int64(5)
	got := EuclideanExpandArea(r, d)
	want := 400 + 80*5 + math.Pi*25
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("euclidean expand area = %v, want %v", got, want)
	}
	// Strictly smaller than the orthogonal expansion: the corner rounding.
	ortho := float64(OrthogonalExpandArea(r, d))
	if got >= ortho {
		t.Fatalf("euclidean (%v) must be smaller than orthogonal (%v)", got, ortho)
	}
	if diff := ortho - got; math.Abs(diff-4*(1-math.Pi/4)*25) > 1e-9 {
		t.Fatalf("corner rounding deficit = %v", diff)
	}
}

func TestEuclideanExpandAreaLShape(t *testing.T) {
	// L-shape: 5 convex corners (quarter disks), 1 concave (square overlap).
	l := FromRects([]Rect{R(0, 0, 30, 10), R(0, 0, 10, 30)})
	d := int64(2)
	got := EuclideanExpandArea(l, d)
	a := float64(l.Area())     // 500
	p := float64(Perimeter(l)) // 120
	want := a + p*2 + 5*(math.Pi/4)*4 - 1*4
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("L euclidean expand area = %v, want %v", got, want)
	}
}

func TestEuclideanShrinkRect(t *testing.T) {
	// Figure 3: both shrinks yield square corners on squares.
	r := R(0, 0, 20, 20)
	if got := EuclideanShrinkRect(r, 5); got != R(5, 5, 15, 15) {
		t.Fatalf("shrink = %v", got)
	}
	if got := EuclideanShrinkRect(r, 10); !got.Empty() {
		t.Fatalf("over-shrink should be empty, got %v", got)
	}
}

func TestCornerCountsDonut(t *testing.T) {
	donut := FromRectR(R(0, 0, 20, 20)).Subtract(FromRectR(R(5, 5, 15, 15)))
	convex, concave := CornerCounts(donut)
	// Outer loop: 4 convex. Hole loop: 4 corners that are concave for the
	// region (interior angle 270°).
	if convex != 4 || concave != 4 {
		t.Fatalf("donut corners = %d/%d, want 4/4", convex, concave)
	}
}
