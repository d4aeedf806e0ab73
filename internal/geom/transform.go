package geom

import "fmt"

// Orient is one of the eight Manhattan orientations: rotations by multiples
// of 90 degrees, optionally composed with a mirror about the X axis.
// CIF restricts symbol calls to these when the rotation vector is axial,
// which is all the structured-design style of the paper uses.
type Orient uint8

// The eight Manhattan orientations. RN is counterclockwise rotation by N
// degrees; MX* is a mirror about the X axis (negating Y) applied first.
const (
	R0 Orient = iota
	R90
	R180
	R270
	MX    // (x,y) -> (x,-y)
	MX90  // mirror then rotate 90
	MX180 // mirror then rotate 180 == MY
	MX270 // mirror then rotate 270
)

// String implements fmt.Stringer.
func (o Orient) String() string {
	switch o {
	case R0:
		return "R0"
	case R90:
		return "R90"
	case R180:
		return "R180"
	case R270:
		return "R270"
	case MX:
		return "MX"
	case MX90:
		return "MX90"
	case MX180:
		return "MX180"
	case MX270:
		return "MX270"
	}
	return fmt.Sprintf("Orient(%d)", uint8(o))
}

// apply maps p through the orientation (about the origin).
func (o Orient) apply(p Point) Point {
	x, y := p.X, p.Y
	if o >= MX {
		y = -y
	}
	switch o & 3 {
	case 0:
		return Point{x, y}
	case 1: // 90 CCW
		return Point{-y, x}
	case 2:
		return Point{-x, -y}
	default: // 270
		return Point{y, -x}
	}
}

// compose returns the orientation equivalent to applying o first, then q.
func (o Orient) compose(q Orient) Orient {
	// Track mirror parity and net rotation. Applying q after o: if q has a
	// mirror, the rotation of o is negated by the mirror conjugation.
	oRot, oMir := int(o&3), o >= MX
	qRot, qMir := int(q&3), q >= MX
	var rot int
	if qMir {
		rot = (qRot - oRot + 8) % 4
	} else {
		rot = (qRot + oRot) % 4
	}
	mir := oMir != qMir
	out := Orient(rot)
	if mir {
		out += MX
	}
	return out
}

// inverse returns the orientation that undoes o. Pure rotations invert to
// the complementary rotation; the four mirrored orientations are
// reflections and therefore involutions.
func (o Orient) inverse() Orient {
	if o >= MX {
		return o
	}
	return Orient((4 - int(o&3)) % 4)
}

// Transform is a Manhattan rigid transform: an orientation followed by a
// translation. It is the transform class of CIF symbol calls restricted to
// axial rotation vectors.
type Transform struct {
	Orient Orient
	Trans  Point
}

// Identity is the do-nothing transform.
var Identity = Transform{}

// Translate returns a pure translation by d.
func Translate(d Point) Transform { return Transform{R0, d} }

// NewTransform returns the transform that applies orient about the origin
// then translates by trans.
func NewTransform(orient Orient, trans Point) Transform {
	return Transform{orient, trans}
}

// Apply maps a point through t.
func (t Transform) Apply(p Point) Point {
	return t.Orient.apply(p).Add(t.Trans)
}

// ApplyRect maps a rect through t (re-normalizing corner order).
func (t Transform) ApplyRect(r Rect) Rect {
	a := t.Apply(Point{r.X1, r.Y1})
	b := t.Apply(Point{r.X2, r.Y2})
	return R(a.X, a.Y, b.X, b.Y)
}

// Compose returns the transform equivalent to applying t first, then u.
func (t Transform) Compose(u Transform) Transform {
	return Transform{
		Orient: t.Orient.compose(u.Orient),
		Trans:  u.Apply(t.Trans),
	}
}

// Inverse returns the transform that undoes t.
func (t Transform) Inverse() Transform {
	io := t.Orient.inverse()
	return Transform{io, io.apply(t.Trans).Neg()}
}

// String implements fmt.Stringer.
func (t Transform) String() string {
	return fmt.Sprintf("%s+%s", t.Orient, t.Trans)
}
