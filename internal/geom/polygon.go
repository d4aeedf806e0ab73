package geom

import (
	"errors"
	"fmt"
	"slices"
)

// Polygon is a simple closed polygon given by its vertices in order; the
// closing edge from the last vertex back to the first is implicit.
// The design-integrity checker works on rectilinear (Manhattan) polygons;
// the parser accepts arbitrary ones and the checker reports non-Manhattan
// polygons as structural violations rather than silently mishandling them.
type Polygon []Point

// Edge is a directed segment between two lattice points.
type Edge struct {
	A, B Point
}

// Horizontal reports whether the edge is horizontal.
func (e Edge) Horizontal() bool { return e.A.Y == e.B.Y }

// Vertical reports whether the edge is vertical.
func (e Edge) Vertical() bool { return e.A.X == e.B.X }

// Len returns the Euclidean length of the edge.
func (e Edge) Len() float64 { return e.A.Dist(e.B) }

// Poly builds a Polygon from a flat coordinate list x0,y0,x1,y1,...
// It panics if an odd number of values is supplied; it is intended for
// literals in tests and workload construction.
func Poly(coords ...int64) Polygon {
	if len(coords)%2 != 0 {
		panic("geom.Poly: odd coordinate count")
	}
	p := make(Polygon, len(coords)/2)
	for i := range p {
		p[i] = Point{coords[2*i], coords[2*i+1]}
	}
	return p
}

// Edges returns the polygon's edges including the closing edge.
func (p Polygon) Edges() []Edge {
	if len(p) < 2 {
		return nil
	}
	out := make([]Edge, len(p))
	for i := range p {
		out[i] = Edge{p[i], p[(i+1)%len(p)]}
	}
	return out
}

// SignedArea2 returns twice the signed area (positive when counterclockwise).
func (p Polygon) SignedArea2() int64 {
	var s int64
	for i := range p {
		j := (i + 1) % len(p)
		s += p[i].Cross(p[j])
	}
	return s
}

// Area returns the absolute area of the polygon.
func (p Polygon) Area() int64 {
	s := p.SignedArea2()
	if s < 0 {
		s = -s
	}
	return s / 2
}

// Bounds returns the bounding box of the polygon.
func (p Polygon) Bounds() Rect {
	if len(p) == 0 {
		return Rect{}
	}
	b := Rect{p[0].X, p[0].Y, p[0].X, p[0].Y}
	for _, q := range p[1:] {
		b.X1 = minInt64(b.X1, q.X)
		b.Y1 = minInt64(b.Y1, q.Y)
		b.X2 = maxInt64(b.X2, q.X)
		b.Y2 = maxInt64(b.Y2, q.Y)
	}
	return b
}

// IsRectilinear reports whether every edge is axis-aligned.
func (p Polygon) IsRectilinear() bool {
	for _, e := range p.Edges() {
		if !e.Horizontal() && !e.Vertical() {
			return false
		}
	}
	return true
}

// Translate returns the polygon moved by d.
func (p Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(p))
	for i, q := range p {
		out[i] = q.Add(d)
	}
	return out
}

// TransformBy returns the polygon mapped through t.
func (p Polygon) TransformBy(t Transform) Polygon {
	out := make(Polygon, len(p))
	for i, q := range p {
		out[i] = t.Apply(q)
	}
	return out
}

// errNotRectilinear is returned by operations that require Manhattan input.
var errNotRectilinear = errors.New("geom: polygon is not rectilinear")

// Validate checks structural soundness: at least three vertices, no
// zero-length edges, and no immediately repeated vertices.
func (p Polygon) Validate() error {
	if len(p) < 3 {
		return fmt.Errorf("geom: polygon has %d vertices, need >= 3", len(p))
	}
	for i := range p {
		j := (i + 1) % len(p)
		if p[i] == p[j] {
			return fmt.Errorf("geom: zero-length edge at vertex %d %v", i, p[i])
		}
	}
	if p.SignedArea2() == 0 {
		return errors.New("geom: polygon has zero area")
	}
	return nil
}

// ToRects decomposes a simple rectilinear polygon into non-overlapping
// rects using horizontal slab decomposition with even-odd filling. It
// returns errNotRectilinear for non-Manhattan polygons.
func (p Polygon) ToRects() ([]Rect, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.IsRectilinear() {
		return nil, errNotRectilinear
	}
	type vedge struct {
		x, y1, y2 int64
	}
	var vs []vedge
	ys := make([]int64, 0, len(p))
	for _, e := range p.Edges() {
		ys = append(ys, e.A.Y)
		if e.Vertical() {
			y1, y2 := e.A.Y, e.B.Y
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			vs = append(vs, vedge{e.A.X, y1, y2})
		}
	}
	ys = dedupSortedInt64(ys)
	var out []Rect
	for i := 0; i+1 < len(ys); i++ {
		yLo, yHi := ys[i], ys[i+1]
		var xs []int64
		for _, v := range vs {
			if v.y1 <= yLo && yHi <= v.y2 {
				xs = append(xs, v.x)
			}
		}
		slices.Sort(xs)
		if len(xs)%2 != 0 {
			return nil, fmt.Errorf("geom: polygon slab at y=%d has odd crossing count (self-intersecting?)", yLo)
		}
		for k := 0; k+1 < len(xs); k += 2 {
			if xs[k] < xs[k+1] {
				out = append(out, Rect{xs[k], yLo, xs[k+1], yHi})
			}
		}
	}
	return out, nil
}

// ContainsPoint reports whether q is strictly inside the polygon using
// even-odd ray casting. Points exactly on the boundary may report either
// value; callers needing boundary semantics should use Region.
func (p Polygon) ContainsPoint(q Point) bool {
	in := false
	for i := range p {
		a, b := p[i], p[(i+1)%len(p)]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			// x coordinate of the crossing, compared without division.
			// crossX = a.X + (q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			num := (q.Y-a.Y)*(b.X-a.X) + a.X*(b.Y-a.Y)
			den := b.Y - a.Y
			if den < 0 {
				num, den = -num, -den
			}
			if q.X*den < num {
				in = !in
			}
		}
	}
	return in
}

// PerimeterRectilinear returns the total edge length of a rectilinear
// polygon as an exact integer.
func (p Polygon) PerimeterRectilinear() int64 {
	var s int64
	for _, e := range p.Edges() {
		s += absInt64(e.B.X-e.A.X) + absInt64(e.B.Y-e.A.Y)
	}
	return s
}

func dedupSortedInt64(xs []int64) []int64 {
	if len(xs) == 0 {
		return xs
	}
	slices.Sort(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
