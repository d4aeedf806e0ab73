package layout

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Edit is one named-symbol mutation of a design — the wire format of the
// check service's edit endpoint and of dicheck's -edits scripts. Every op
// addresses a symbol definition by name; geometry is given as flat
// coordinate lists so scripts stay hand-writable:
//
//	{"op":"add_box","symbol":"cell","layer":"metal","box":[0,0,300,900]}
//	{"op":"add_wire","symbol":"chip","layer":"poly","width":200,"path":[3200,-400,3200,400]}
//	{"op":"delete_element","symbol":"chip","index":-1}
//	{"op":"move_element","symbol":"row0","index":3,"dx":250}
//	{"op":"add_call","symbol":"chip","target":"row","name":"r9","orient":"MX","dx":0,"dy":36000}
//	{"op":"delete_call","symbol":"chip","index":-1}
//	{"op":"move_call","symbol":"chip","index":2,"dy":-400}
//
// Element and call indices follow definition order (Element.Index); a
// negative index addresses from the end (-1 = last), so a just-appended
// element can be reverted without counting.
type Edit struct {
	Op     string  `json:"op"`
	Symbol string  `json:"symbol"`
	Layer  string  `json:"layer,omitempty"`  // layer name (add_box, add_wire)
	Box    []int64 `json:"box,omitempty"`    // x1 y1 x2 y2 (add_box)
	Path   []int64 `json:"path,omitempty"`   // x1 y1 x2 y2 ... (add_wire)
	Width  int64   `json:"width,omitempty"`  // wire width (add_wire)
	Net    string  `json:"net,omitempty"`    // declared net for added geometry
	Index  int     `json:"index,omitempty"`  // element/call index; negative = from end
	DX     int64   `json:"dx,omitempty"`     // move delta or call placement x
	DY     int64   `json:"dy,omitempty"`     // move delta or call placement y
	Target string  `json:"target,omitempty"` // called symbol name (add_call)
	Orient string  `json:"orient,omitempty"` // call orientation (add_call; default R0)
	Name   string  `json:"name,omitempty"`   // call instance name (add_call)
}

// Edit op names.
const (
	OpAddBox        = "add_box"
	OpAddWire       = "add_wire"
	OpDeleteElement = "delete_element"
	OpMoveElement   = "move_element"
	OpAddCall       = "add_call"
	OpDeleteCall    = "delete_call"
	OpMoveCall      = "move_call"
)

// ParseOrient resolves an orientation name ("R0".."R270", "MX".."MX270");
// the empty string is R0.
func ParseOrient(name string) (geom.Orient, error) {
	if name == "" {
		return geom.R0, nil
	}
	for o := geom.R0; o <= geom.MX270; o++ {
		if o.String() == name {
			return o, nil
		}
	}
	return geom.R0, fmt.Errorf("layout: unknown orientation %q", name)
}

// ApplyEdit applies one edit to the design, marking the touched symbol's
// derived caches stale (Symbol.Touch) so a following incremental Recheck
// sees the change through dirty propagation. The mutation is validated
// before any state changes: an error leaves the design exactly as it was.
func ApplyEdit(d *Design, tc *tech.Technology, e Edit) error {
	s, ok := d.Symbol(e.Symbol)
	if !ok {
		return fmt.Errorf("layout: edit %s: no symbol %q", e.Op, e.Symbol)
	}
	switch e.Op {
	case OpAddBox:
		layer, err := editLayer(tc, e)
		if err != nil {
			return err
		}
		if err := editName(e, "net", e.Net); err != nil {
			return err
		}
		if len(e.Box) != 4 {
			return fmt.Errorf("layout: edit add_box on %q: box needs [x1 y1 x2 y2], got %d values", e.Symbol, len(e.Box))
		}
		el := &Element{Kind: KindBox, Layer: layer, Box: geom.R(e.Box[0], e.Box[1], e.Box[2], e.Box[3]), Net: e.Net}
		if err := el.CheckCoords(); err != nil {
			return fmt.Errorf("layout: edit add_box on %q: %w", e.Symbol, err)
		}
		if err := d.checkGrowth(s, 0, 1, 0); err != nil {
			return fmt.Errorf("layout: edit add_box on %q: %w", e.Symbol, err)
		}
		s.AddElement(el)
	case OpAddWire:
		layer, err := editLayer(tc, e)
		if err != nil {
			return err
		}
		if err := editName(e, "net", e.Net); err != nil {
			return err
		}
		if len(e.Path) == 0 || len(e.Path)%2 != 0 {
			return fmt.Errorf("layout: edit add_wire on %q: path needs x,y pairs, got %d values", e.Symbol, len(e.Path))
		}
		if e.Width <= 0 {
			return fmt.Errorf("layout: edit add_wire on %q: width %d", e.Symbol, e.Width)
		}
		pts := make([]geom.Point, len(e.Path)/2)
		for i := range pts {
			pts[i] = geom.Pt(e.Path[2*i], e.Path[2*i+1])
		}
		el := &Element{Kind: KindWire, Layer: layer, Width: e.Width, Path: pts, Net: e.Net}
		if err := el.CheckCoords(); err != nil {
			return fmt.Errorf("layout: edit add_wire on %q: %w", e.Symbol, err)
		}
		if err := d.checkGrowth(s, 0, 1, 0); err != nil {
			return fmt.Errorf("layout: edit add_wire on %q: %w", e.Symbol, err)
		}
		s.AddElement(el)
	case OpDeleteElement:
		i, err := editIndex(e, len(s.Elements), "element")
		if err != nil {
			return err
		}
		s.Elements = append(s.Elements[:i], s.Elements[i+1:]...)
		// Element.Index is positional (violation references and net
		// numbering depend on it); renumber the tail to keep it so.
		for k := i; k < len(s.Elements); k++ {
			s.Elements[k].Index = k
		}
		s.Touch()
	case OpMoveElement:
		i, err := editIndex(e, len(s.Elements), "element")
		if err != nil {
			return err
		}
		if !movedInRange(s.Elements[i].Bounds(), e.DX, e.DY) {
			return fmt.Errorf("layout: edit move_element on %q: %w: element %d moved by (%d,%d) leaves ±%d", e.Symbol, ErrTooLarge, i, e.DX, e.DY, MaxCoord)
		}
		moveElement(s.Elements[i], e.DX, e.DY)
		// A move is the one edit whose effect is bounded by the element's
		// old and new extents, which lets extraction patch a window instead
		// of re-deriving the whole definition.
		s.TouchElement(i)
	case OpAddCall:
		target, ok := d.Symbol(e.Target)
		if !ok {
			return fmt.Errorf("layout: edit add_call on %q: no target symbol %q", e.Symbol, e.Target)
		}
		o, err := ParseOrient(e.Orient)
		if err != nil {
			return err
		}
		if err := editName(e, "instance", e.Name); err != nil {
			return err
		}
		if s.IsPrimitive() {
			return fmt.Errorf("layout: edit add_call: %q is a primitive device symbol", e.Symbol)
		}
		if reaches(target, s) {
			// An acknowledged cycle would wedge every later check (Validate
			// fails), so reject it here where the edit is still atomic.
			return fmt.Errorf("layout: edit add_call: %q -> %q would create a call cycle", e.Symbol, e.Target)
		}
		if err := CheckOffset(geom.Pt(e.DX, e.DY)); err != nil {
			return fmt.Errorf("layout: edit add_call: %q -> %q: %w", e.Symbol, e.Target, err)
		}
		inst, elems, height := flatSize(target, make(map[*Symbol][3]int64))
		if err := d.checkGrowth(s, inst, elems, height); err != nil {
			return fmt.Errorf("layout: edit add_call: %q -> %q: %w", e.Symbol, e.Target, err)
		}
		s.AddCall(target, geom.NewTransform(o, geom.Pt(e.DX, e.DY)), e.Name)
	case OpDeleteCall:
		i, err := editIndex(e, len(s.Calls), "call")
		if err != nil {
			return err
		}
		s.Calls = append(s.Calls[:i], s.Calls[i+1:]...)
		s.Touch()
	case OpMoveCall:
		i, err := editIndex(e, len(s.Calls), "call")
		if err != nil {
			return err
		}
		c := s.Calls[i]
		if !movedInRange(geom.Rect{X1: c.T.Trans.X, Y1: c.T.Trans.Y, X2: c.T.Trans.X, Y2: c.T.Trans.Y}, e.DX, e.DY) {
			return fmt.Errorf("layout: edit move_call on %q: %w: call %d moved by (%d,%d) leaves ±%d", e.Symbol, ErrTooLarge, i, e.DX, e.DY, MaxCoord)
		}
		c.T.Trans.X += e.DX
		c.T.Trans.Y += e.DY
		s.Touch()
	default:
		return fmt.Errorf("layout: unknown edit op %q", e.Op)
	}
	return nil
}

// ApplyEdits applies edits in order, stopping at the first failure. It
// returns the number applied; on error the design holds the successful
// prefix (each individual edit is atomic).
func ApplyEdits(d *Design, tc *tech.Technology, edits []Edit) (int, error) {
	for i, e := range edits {
		if err := ApplyEdit(d, tc, e); err != nil {
			return i, fmt.Errorf("edit %d: %w", i, err)
		}
	}
	return len(edits), nil
}

func editLayer(tc *tech.Technology, e Edit) (tech.LayerID, error) {
	id, ok := tc.LayerByName(e.Layer)
	if !ok {
		return 0, fmt.Errorf("layout: edit %s on %q: unknown layer %q", e.Op, e.Symbol, e.Layer)
	}
	return id, nil
}

// IsNameByte reports whether c belongs to the alphabet of CIF's
// single-token names: letters, digits, '-', '_' and '.'.
func IsNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
}

// IsName reports whether n is a name CIF carries unchanged: one token of
// IsNameByte bytes.
func IsName(n string) bool {
	for i := 0; i < len(n); i++ {
		if !IsNameByte(n[i]) {
			return false
		}
	}
	return n != ""
}

// editName refuses a net or instance name CIF cannot carry, which a
// session's snapshot would otherwise rewrite; the empty name is no name.
func editName(e Edit, kind, name string) error {
	if name != "" && !IsName(name) {
		return fmt.Errorf("layout: edit %s on %q: %s name %q is not one token of letters, digits, '-', '_' and '.'", e.Op, e.Symbol, kind, name)
	}
	return nil
}

func editIndex(e Edit, n int, kind string) (int, error) {
	i := e.Index
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return 0, fmt.Errorf("layout: edit %s on %q: %s index %d out of range (have %d)", e.Op, e.Symbol, kind, e.Index, n)
	}
	return i, nil
}

// reaches reports whether to is reachable from from through calls
// (including from == to). It visits each symbol once: a hierarchy within
// the size cap can still hold millions of call paths.
func reaches(from, to *Symbol) bool {
	seen := make(map[*Symbol]bool)
	var walk func(s *Symbol) bool
	walk = func(s *Symbol) bool {
		if s == to {
			return true
		}
		if seen[s] {
			return false
		}
		seen[s] = true
		for _, c := range s.Calls {
			if c.Target != nil && walk(c.Target) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func moveElement(el *Element, dx, dy int64) {
	el.Box.X1 += dx
	el.Box.X2 += dx
	el.Box.Y1 += dy
	el.Box.Y2 += dy
	for i := range el.Path {
		el.Path[i].X += dx
		el.Path[i].Y += dy
	}
	for i := range el.Poly {
		el.Poly[i].X += dx
		el.Poly[i].Y += dy
	}
}
