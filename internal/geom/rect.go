package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle with X1 <= X2 and Y1 <= Y2.
// The rectangle is the closed region [X1,X2]×[Y1,Y2]; a rect with X1==X2 or
// Y1==Y2 is degenerate (zero area) and is treated as empty by the region
// algebra but may still be used for geometric queries.
type Rect struct {
	X1, Y1, X2, Y2 int64
}

// R constructs a normalized Rect from two corner coordinates in any order.
func R(x1, y1, x2, y2 int64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{x1, y1, x2, y2}
}

// RectCenteredAt returns the w×h rect centered at p. Odd extents are rounded
// toward the lower-left so the result stays on the integer lattice.
func RectCenteredAt(p Point, w, h int64) Rect {
	return Rect{p.X - w/2, p.Y - h/2, p.X - w/2 + w, p.Y - h/2 + h}
}

// Empty reports whether r encloses zero area.
func (r Rect) Empty() bool { return r.X1 >= r.X2 || r.Y1 >= r.Y2 }

// W returns the width (X extent) of r.
func (r Rect) W() int64 { return r.X2 - r.X1 }

// H returns the height (Y extent) of r.
func (r Rect) H() int64 { return r.Y2 - r.Y1 }

// Area returns the area of r, 0 if degenerate.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// MinSide returns min(W,H) — the orthogonal "width" of the rectangle in the
// design-rule sense.
func (r Rect) MinSide() int64 { return minInt64(r.W(), r.H()) }

// Center returns the center point of r (rounded toward the lower-left).
func (r Rect) Center() Point { return Point{(r.X1 + r.X2) / 2, (r.Y1 + r.Y2) / 2} }

// Canon returns r normalized so X1<=X2 and Y1<=Y2.
func (r Rect) Canon() Rect { return R(r.X1, r.Y1, r.X2, r.Y2) }

// Translate returns r moved by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.X1 + d.X, r.Y1 + d.Y, r.X2 + d.X, r.Y2 + d.Y}
}

// Expand returns r grown by d on every side (shrunk if d<0). The result may
// be empty after shrinking.
func (r Rect) Expand(d int64) Rect {
	return Rect{r.X1 - d, r.Y1 - d, r.X2 + d, r.Y2 + d}
}

// ExpandXY returns r grown by dx horizontally and dy vertically.
func (r Rect) ExpandXY(dx, dy int64) Rect {
	return Rect{r.X1 - dx, r.Y1 - dy, r.X2 + dx, r.Y2 + dy}
}

// Intersect returns the intersection of r and s; the result is normalized
// and may be empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		maxInt64(r.X1, s.X1), maxInt64(r.Y1, s.Y1),
		minInt64(r.X2, s.X2), minInt64(r.Y2, s.Y2),
	}
	if out.X1 > out.X2 {
		out.X2 = out.X1
	}
	if out.Y1 > out.Y2 {
		out.Y2 = out.Y1
	}
	return out
}

// Union returns the bounding box of r and s. An empty rect is the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		minInt64(r.X1, s.X1), minInt64(r.Y1, s.Y1),
		maxInt64(r.X2, s.X2), maxInt64(r.Y2, s.Y2),
	}
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.X1 < s.X2 && s.X1 < r.X2 && r.Y1 < s.Y2 && s.Y1 < r.Y2
}

// Touches reports whether the closed rects r and s intersect (shared area,
// edge, or corner).
func (r Rect) Touches(s Rect) bool {
	return r.X1 <= s.X2 && s.X1 <= r.X2 && r.Y1 <= s.Y2 && s.Y1 <= r.Y2
}

// Contains reports whether p lies in the closed rect r.
func (r Rect) Contains(p Point) bool {
	return r.X1 <= p.X && p.X <= r.X2 && r.Y1 <= p.Y && p.Y <= r.Y2
}

// ContainsRect reports whether s lies entirely within the closed rect r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.X1 <= s.X1 && s.X2 <= r.X2 && r.Y1 <= s.Y1 && s.Y2 <= r.Y2
}

// GapX returns the horizontal clearance between r and s (0 if the X
// projections overlap or touch).
func (r Rect) GapX(s Rect) int64 {
	if g := s.X1 - r.X2; g > 0 {
		return g
	}
	if g := r.X1 - s.X2; g > 0 {
		return g
	}
	return 0
}

// GapY returns the vertical clearance between r and s (0 if the Y
// projections overlap or touch).
func (r Rect) GapY(s Rect) int64 {
	if g := s.Y1 - r.Y2; g > 0 {
		return g
	}
	if g := r.Y1 - s.Y2; g > 0 {
		return g
	}
	return 0
}

// EuclideanDist returns the minimum Euclidean distance between the closed
// rects r and s (0 if they touch or overlap).
func (r Rect) EuclideanDist(s Rect) float64 {
	dx, dy := float64(r.GapX(s)), float64(r.GapY(s))
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// OrthogonalDist returns the L∞ separation max(gapX, gapY) between r and s.
// This is the metric implied by orthogonal expand-check-overlap: two rects
// violate an orthogonal spacing rule of s when OrthogonalDist < s even if
// their Euclidean separation is larger (the Figure 4 corner pathology).
func (r Rect) OrthogonalDist(s Rect) int64 {
	return maxInt64(r.GapX(s), r.GapY(s))
}

// ClosestPoints returns a pair of points, one on each rect boundary (or
// interior if overlapping), achieving the minimum Euclidean distance. This is
// the "line of closest approach" of the paper's 2-D process model. When the
// rects' projections overlap on an axis, the points sit at the middle of
// the shared interval — for facing parallel edges that is where the
// exposure function along the line is maximal.
func (r Rect) ClosestPoints(s Rect) (Point, Point) {
	var ax, bx int64
	switch {
	case r.X2 < s.X1:
		ax, bx = r.X2, s.X1
	case s.X2 < r.X1:
		ax, bx = r.X1, s.X2
	default:
		m := (maxInt64(r.X1, s.X1) + minInt64(r.X2, s.X2)) / 2
		ax, bx = m, m
	}
	var ay, by int64
	switch {
	case r.Y2 < s.Y1:
		ay, by = r.Y2, s.Y1
	case s.Y2 < r.Y1:
		ay, by = r.Y1, s.Y2
	default:
		m := (maxInt64(r.Y1, s.Y1) + minInt64(r.Y2, s.Y2)) / 2
		ay, by = m, m
	}
	return Point{ax, ay}, Point{bx, by}
}

// DistToPoint returns the Euclidean distance from p to the closed rect r
// (0 if p is inside).
func (r Rect) DistToPoint(p Point) float64 {
	dx := maxInt64(maxInt64(r.X1-p.X, p.X-r.X2), 0)
	dy := maxInt64(maxInt64(r.Y1-p.Y, p.Y-r.Y2), 0)
	if dx == 0 {
		return float64(dy)
	}
	if dy == 0 {
		return float64(dx)
	}
	return math.Hypot(float64(dx), float64(dy))
}

// Corners returns the four corners of r counterclockwise from the
// lower-left.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.X1, r.Y1}, {r.X2, r.Y1}, {r.X2, r.Y2}, {r.X1, r.Y2},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X1, r.Y1, r.X2, r.Y2)
}
