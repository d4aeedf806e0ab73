package geom

import "math"

// FPoint is a float64 point, used only where the paper's geometry is
// genuinely analog: the optical exposure model.
type FPoint struct {
	X, Y float64
}

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
