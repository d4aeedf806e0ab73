package geom

import "math"

// FPoint is a float64 point, used only where the paper's geometry is
// genuinely analog: Euclidean offset contours and the exposure model.
type FPoint struct {
	X, Y float64
}

// FPolygon is a closed polygon with float64 vertices (closing edge
// implicit), produced by Euclidean offsetting.
type FPolygon []FPoint

// SignedArea returns the signed area of the polygon (positive when CCW).
func (p FPolygon) SignedArea() float64 {
	var s float64
	for i := range p {
		j := (i + 1) % len(p)
		s += p[i].X*p[j].Y - p[j].X*p[i].Y
	}
	return s / 2
}

// Area returns the absolute area.
func (p FPolygon) Area() float64 { return math.Abs(p.SignedArea()) }

// OrthogonalExpandArea returns the exact area of the orthogonal expansion
// of a region by d, computed with the region algebra.
func OrthogonalExpandArea(r Region, d int64) int64 { return r.Dilate(d).Area() }

// CornerCounts returns the number of convex (90° interior) and concave
// (270° interior) corners over all contours of a rectilinear region.
// For a simply connected rectilinear region, convex - concave == 4.
func CornerCounts(r Region) (convex, concave int) {
	for _, loop := range r.Contours() {
		n := len(loop)
		for i := 0; i < n; i++ {
			a := loop[i]
			b := loop[(i+1)%n]
			c := loop[(i+2)%n]
			cross := b.Sub(a).Cross(c.Sub(b))
			// Contours orient outer loops CCW and holes CW with interior on
			// the left, so a left turn (positive cross) is a convex corner.
			if cross > 0 {
				convex++
			} else if cross < 0 {
				concave++
			}
		}
	}
	return convex, concave
}

// Perimeter returns the total boundary length of a rectilinear region.
func Perimeter(r Region) int64 {
	var total int64
	for _, loop := range r.Contours() {
		total += loop.PerimeterRectilinear()
	}
	return total
}

// EuclideanExpandArea returns the exact area of the Euclidean (disk)
// expansion of a rectilinear region by radius d, valid when d is smaller
// than half the minimum feature, notch and gap size of the region (so that
// offset boundaries from distinct edges do not interact). The formula sums
// edge strips, quarter-disk wedges at convex corners, and square overlap
// corrections at concave corners:
//
//	A' = A + P·d + Nconvex·(π/4)·d² − Nconcave·(1−... )  — see below.
//
// At a concave corner the two adjacent edge strips overlap in a d×d square,
// which must be subtracted once.
func EuclideanExpandArea(r Region, d int64) float64 {
	a := float64(r.Area())
	p := float64(Perimeter(r))
	convex, concave := CornerCounts(r)
	dd := float64(d)
	return a + p*dd + float64(convex)*(math.Pi/4)*dd*dd - float64(concave)*dd*dd
}

// EuclideanExpandRectPolygon returns the Euclidean expansion contour of a
// rect by radius d, with each rounded corner approximated by segsPerQuarter
// chords (Figure 3, right: "the Euclidean expand rounds the corners").
func EuclideanExpandRectPolygon(r Rect, d int64, segsPerQuarter int) FPolygon {
	if segsPerQuarter < 1 {
		segsPerQuarter = 1
	}
	corners := [4]FPoint{ // CCW from lower-left, arc centers
		{float64(r.X2), float64(r.Y1)},
		{float64(r.X2), float64(r.Y2)},
		{float64(r.X1), float64(r.Y2)},
		{float64(r.X1), float64(r.Y1)},
	}
	startAngle := [4]float64{-math.Pi / 2, 0, math.Pi / 2, math.Pi}
	var out FPolygon
	dd := float64(d)
	for c := 0; c < 4; c++ {
		for s := 0; s <= segsPerQuarter; s++ {
			th := startAngle[c] + (math.Pi/2)*float64(s)/float64(segsPerQuarter)
			out = append(out, FPoint{
				corners[c].X + dd*math.Cos(th),
				corners[c].Y + dd*math.Sin(th),
			})
		}
	}
	return out
}

// EuclideanShrinkRect returns the Euclidean (disk) erosion of a rect by d.
// For convex rectilinear shapes disk erosion coincides with orthogonal
// erosion (Figure 3: "both Euclidean and Orthogonal shrink yield square
// corners when applied to simple squares").
func EuclideanShrinkRect(r Rect, d int64) Rect {
	out := r.Expand(-d)
	if out.X1 > out.X2 || out.Y1 > out.Y2 {
		return Rect{out.X1, out.Y1, out.X1, out.Y1} // collapsed to empty
	}
	return out
}

// EuclideanSECCornerLoss returns the area falsely flagged at each convex
// corner by the Euclidean shrink-expand-compare width check of Figure 4:
// shrinking by h and Euclidean-expanding by h rounds every convex corner,
// losing (1 − π/4)·h² per corner even on perfectly legal geometry.
func EuclideanSECCornerLoss(h int64) float64 {
	hh := float64(h)
	return (1 - math.Pi/4) * hh * hh
}

// EuclideanSECFalseCorners performs the Euclidean shrink-expand-compare
// width check on a rect of legal width and returns the per-corner regions
// that the check would flag (one square of side h at each convex corner of
// which only the rounded part is actually covered). It returns the corner
// rects and the exact falsely-flagged area.
func EuclideanSECFalseCorners(r Rect, h int64) ([]Rect, float64) {
	if r.MinSide() < 2*h {
		return nil, 0 // genuinely too narrow: SEC flags the whole shape
	}
	corners := []Rect{
		{r.X1, r.Y1, r.X1 + h, r.Y1 + h},
		{r.X2 - h, r.Y1, r.X2, r.Y1 + h},
		{r.X2 - h, r.Y2 - h, r.X2, r.Y2},
		{r.X1, r.Y2 - h, r.X1 + h, r.Y2},
	}
	return corners, 4 * EuclideanSECCornerLoss(h)
}
