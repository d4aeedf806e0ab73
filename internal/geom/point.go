package geom

import (
	"fmt"
	"math"
)

// Point is an integer lattice point in centimicrons.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p+q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p-q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Neg returns -p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k int64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) int64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) int64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance from p to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := float64(p.X-q.X), float64(p.Y-q.Y)
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
