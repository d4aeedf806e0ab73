// Package layout is the hierarchical design database of the
// design-integrity checker.
//
// A Design is a set of Symbols; a Symbol holds primitive Elements (boxes,
// wires, polygons on mask layers) and Calls to other symbols placed under
// Manhattan transforms. Following the paper, a symbol may be declared a
// *primitive device symbol* by carrying a device type (the extended-CIF 9D
// extension): devices exist only as such symbols, and every element may
// carry a declared net identifier (the 9N extension).
//
// The key property the checker relies on (and the reason this package
// exists instead of a polygon soup): the chip is never fully instantiated —
// "the information about what symbol the piece of geometry came from is
// never lost". A flattener is provided, but only the traditional mask-level
// baseline uses it.
package layout

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/tech"
)

// ElemKind distinguishes the CIF primitive element forms.
type ElemKind uint8

// Element kinds.
const (
	KindBox ElemKind = iota
	KindWire
	KindPolygon
)

// String implements fmt.Stringer.
func (k ElemKind) String() string {
	switch k {
	case KindBox:
		return "box"
	case KindWire:
		return "wire"
	case KindPolygon:
		return "polygon"
	}
	return fmt.Sprintf("ElemKind(%d)", uint8(k))
}

// Element is one primitive geometric element on a mask layer.
type Element struct {
	Kind  ElemKind
	Layer tech.LayerID

	// Box geometry (KindBox).
	Box geom.Rect

	// Wire geometry (KindWire): a path with total width; the CIF round
	// ends are approximated by square caps half a width past the
	// endpoints (see wireRegion).
	Path  []geom.Point
	Width int64

	// Polygon geometry (KindPolygon).
	Poly geom.Polygon

	// Net is the declared net identifier from the 9N extension ("" if the
	// element is anonymous and must inherit connectivity by extraction).
	Net string

	// Index is the element's position within its symbol, assigned by
	// Symbol.AddElement; it makes violation references stable.
	Index int
}

// Region materializes the element's covered area. Wires with non-Manhattan
// segments and non-rectilinear polygons return an error — the checker
// reports these as structural violations.
func (e *Element) Region() (geom.Region, error) {
	switch e.Kind {
	case KindBox:
		if e.Box.Empty() {
			return geom.Region{}, fmt.Errorf("layout: degenerate box %v", e.Box)
		}
		return geom.FromRectR(e.Box), nil
	case KindWire:
		return wireRegion(e.Path, e.Width)
	case KindPolygon:
		return geom.FromPolygon(e.Poly)
	}
	return geom.Region{}, fmt.Errorf("layout: unknown element kind %d", e.Kind)
}

// Bounds returns the element's bounding box without materializing a region.
func (e *Element) Bounds() geom.Rect {
	switch e.Kind {
	case KindBox:
		return e.Box
	case KindWire:
		if len(e.Path) == 0 {
			return geom.Rect{}
		}
		b := geom.Rect{X1: e.Path[0].X, Y1: e.Path[0].Y, X2: e.Path[0].X, Y2: e.Path[0].Y}
		for _, p := range e.Path[1:] {
			if p.X < b.X1 {
				b.X1 = p.X
			}
			if p.X > b.X2 {
				b.X2 = p.X
			}
			if p.Y < b.Y1 {
				b.Y1 = p.Y
			}
			if p.Y > b.Y2 {
				b.Y2 = p.Y
			}
		}
		h := e.Width / 2
		return geom.Rect{X1: b.X1 - h, Y1: b.Y1 - h, X2: b.X2 + (e.Width - h), Y2: b.Y2 + (e.Width - h)}
	case KindPolygon:
		return e.Poly.Bounds()
	}
	return geom.Rect{}
}

// wireRegion converts a Manhattan wire path to a region: each segment
// becomes a rect of the given width, extended by half the width at both
// ends (square end caps), matching how CIF wires print on rectilinear
// processes.
func wireRegion(path []geom.Point, width int64) (geom.Region, error) {
	if width <= 0 {
		return geom.Region{}, fmt.Errorf("layout: wire width %d", width)
	}
	if len(path) == 0 {
		return geom.Region{}, fmt.Errorf("layout: empty wire path")
	}
	h := width / 2
	h2 := width - h // preserves odd widths exactly
	if len(path) == 1 {
		p := path[0]
		return geom.FromRectR(geom.Rect{X1: p.X - h, Y1: p.Y - h, X2: p.X + h2, Y2: p.Y + h2}), nil
	}
	rects := make([]geom.Rect, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		switch {
		case a.Y == b.Y: // horizontal
			x1, x2 := a.X, b.X
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			rects = append(rects, geom.Rect{X1: x1 - h, Y1: a.Y - h, X2: x2 + h2, Y2: a.Y + h2})
		case a.X == b.X: // vertical
			y1, y2 := a.Y, b.Y
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			rects = append(rects, geom.Rect{X1: a.X - h, Y1: y1 - h, X2: a.X + h2, Y2: y2 + h2})
		default:
			return geom.Region{}, fmt.Errorf("layout: non-Manhattan wire segment %v-%v", a, b)
		}
	}
	return geom.FromRects(rects), nil
}

// Call is an instance of another symbol under a Manhattan transform.
type Call struct {
	Target *Symbol
	T      geom.Transform
	// Name is the instance name used in hierarchical net identifiers
	// (dot notation "a.b"); assigned automatically if empty.
	Name string
}

// Symbol is a definition: elements plus calls. A symbol with a non-empty
// DeviceType is a primitive device symbol (the paper's "elemental symbol"):
// it must contain only geometry (no calls), and it is the only construct
// that may define a device.
type Symbol struct {
	Name string
	ID   int

	// DeviceType is the declared device type name ("" for composite
	// symbols). Declared via the 9D extension.
	DeviceType string

	// Checked marks a special device as already verified by its designer,
	// suppressing internal device checks — the paper's mechanism for
	// devices that intentionally break the rules.
	Checked bool

	Elements []*Element
	Calls    []*Call

	bboxValid bool
	bbox      geom.Rect

	dirty DirtyInfo

	// design is the registering design (nil for a free-standing symbol):
	// Touch invalidates its memoised call graph.
	design *Design
	hc     hashCache
}

// DirtyInfo accumulates what a symbol's edits since the last ResetDirty
// covered: either full (structural) dirtiness, or a set of in-place
// element geometry edits together with the bounding window of everything
// they moved. Consumers that know how to recheck a window (the engine's
// windowed recheck) read it through Dirty; plain Touch degrades to Full,
// so every unscoped edit path stays correct.
//
// A symbol numbers its edits, and the record is stamped with the range it
// covers, because every consumer of a design shares it: a consumer that
// remembers the Seq of the state it last derived can tell whether the
// record still reaches back that far (Since <= remembered Seq) or was
// reset in between by someone else, in which case it has lost edits and
// must not be trusted.
type DirtyInfo struct {
	// The record covers exactly the edits numbered Since+1..Seq; Seq is
	// the symbol's edit count so far.
	Since, Seq uint64
	Full       bool // structural or unscoped edit: the whole definition is dirty
	// Elems lists the element indices edited in place (deduplicated),
	// meaningful only when !Full.
	Elems []int
	// Window is the union of the edited elements' old and new bounds.
	Window geom.Rect
}

// AddElement appends an element, assigning its Index.
func (s *Symbol) AddElement(e *Element) *Element {
	e.Index = len(s.Elements)
	s.Elements = append(s.Elements, e)
	s.Touch()
	return e
}

// AddBox is a convenience for adding a box element.
func (s *Symbol) AddBox(layer tech.LayerID, r geom.Rect, net string) *Element {
	return s.AddElement(&Element{Kind: KindBox, Layer: layer, Box: r, Net: net})
}

// AddWire is a convenience for adding a wire element.
func (s *Symbol) AddWire(layer tech.LayerID, width int64, net string, path ...geom.Point) *Element {
	return s.AddElement(&Element{Kind: KindWire, Layer: layer, Width: width, Path: path, Net: net})
}

// AddPolygon is a convenience for adding a polygon element.
func (s *Symbol) AddPolygon(layer tech.LayerID, p geom.Polygon, net string) *Element {
	return s.AddElement(&Element{Kind: KindPolygon, Layer: layer, Poly: p, Net: net})
}

// AddCall instantiates target under transform t with the given instance
// name (auto-named "iN" when empty).
func (s *Symbol) AddCall(target *Symbol, t geom.Transform, name string) *Call {
	if name == "" {
		name = fmt.Sprintf("i%d", len(s.Calls))
	}
	c := &Call{Target: target, T: t, Name: name}
	s.Calls = append(s.Calls, c)
	s.Touch()
	return c
}

// IsPrimitive reports whether the symbol declares a device type.
func (s *Symbol) IsPrimitive() bool { return s.DeviceType != "" }

// Touch marks everything derived from the symbol stale — its bounding
// box, its cached content hashes, the design's memoised call graph — and
// records full dirtiness. The Add* methods do this automatically; call
// Touch after any direct write to an element's or a call's fields, or to
// the Calls slice: the content hashes are recomputed only where an edit
// number moved (see Design.ContentHashes), so an untouched write is not
// seen by any cache keyed on them. An editor that moved one element's
// geometry and can bound the change should call TouchElement instead,
// which keeps the dirtiness window-scoped.
func (s *Symbol) Touch() {
	s.bboxValid = false
	s.dirty.Seq++
	s.dirty.Full = true
	if s.design != nil {
		s.design.structGen++
	}
}

// TouchElement records an in-place geometry edit of element i whose
// bounds before the edit were oldBounds. Unlike Touch it keeps the
// dirtiness window-scoped: the accumulated window covers the element's
// old and new extents, so a windowed recheck knows every place the edit
// can have consequences — and, an element edit leaving the call list as it
// was, the design's memoised call graph stands. Out-of-range indices
// degrade to full dirtiness.
func (s *Symbol) TouchElement(i int, oldBounds geom.Rect) {
	s.bboxValid = false
	s.dirty.Seq++
	if s.dirty.Full {
		return
	}
	if i < 0 || i >= len(s.Elements) {
		s.dirty.Full = true
		return
	}
	found := false
	for _, k := range s.dirty.Elems {
		if k == i {
			found = true
			break
		}
	}
	if !found {
		s.dirty.Elems = append(s.dirty.Elems, i)
	}
	s.dirty.Window = s.dirty.Window.Union(oldBounds).Union(s.Elements[i].Bounds())
}

// Dirty returns the edit record accumulated since the last ResetDirty.
// Reading does not consume it: a consumer whose run is abandoned leaves
// the record intact for the next one.
func (s *Symbol) Dirty() DirtyInfo { return s.dirty }

// ResetDirty starts a fresh record at the current edit number. The engine
// calls it on every symbol when a run completes, so between completed
// runs the record accumulates across any number of edits.
func (s *Symbol) ResetDirty() {
	s.dirty = DirtyInfo{Since: s.dirty.Seq, Seq: s.dirty.Seq}
}

// Bounds returns the symbol's bounding box including called symbols,
// cached until the symbol is modified.
func (s *Symbol) Bounds() geom.Rect {
	if s.bboxValid {
		return s.bbox
	}
	var b geom.Rect
	for _, e := range s.Elements {
		b = b.Union(e.Bounds())
	}
	for _, c := range s.Calls {
		b = b.Union(c.T.ApplyRect(c.Target.Bounds()))
	}
	s.bbox = b
	s.bboxValid = true
	return b
}

// LayerRegion returns the union of this symbol's own elements on one layer
// (calls excluded). Elements that fail to materialize are skipped; the
// checker reports them separately.
func (s *Symbol) LayerRegion(layer tech.LayerID) geom.Region {
	var regs []geom.Region
	for _, e := range s.Elements {
		if e.Layer != layer {
			continue
		}
		reg, err := e.Region()
		if err != nil {
			continue
		}
		regs = append(regs, reg)
	}
	return geom.BulkUnion(regs)
}

// Design is a named set of symbols with a designated top. It is not safe
// for concurrent use, queries included: Validate, SortedSymbols and
// ContentHashes refresh memos kept on the design and its symbols.
type Design struct {
	Name    string
	symbols []*Symbol
	byName  map[string]*Symbol
	Top     *Symbol

	// structGen counts the edits that can change the call graph or the
	// name table: every Symbol.Touch, NewSymbol and Rename. graph is the
	// walk from Top memoised against it.
	structGen uint64
	graph     callGraph

	// Content-hash cache (see HashesSince): the pass and epoch counters
	// the per-symbol caches are stamped with, the map last handed out and
	// the serial of the call graph it lists, and the serialisation buffer.
	hashPass, hashEpoch uint64
	hashes              map[*Symbol]SymbolHashes
	hashesOf            uint64
	hashBuf             hashWriter
}

// callGraph is one walk of the calls reachable from a design's top: valid
// while the design's structGen and Top are the ones it was taken at.
type callGraph struct {
	serial    uint64 // counts rebuilds; 0 means never built
	structGen uint64
	top       *Symbol
	order     []*Symbol             // callees before callers, by call order
	callers   map[*Symbol][]*Symbol // distinct callers of each symbol, in order's order
	err       error                 // the first cycle, nil target or unregistered target met
}

// callGraph returns the memoised walk, redoing it only after an edit that
// can have changed it.
func (d *Design) callGraph() *callGraph {
	g := &d.graph
	if g.serial != 0 && g.structGen == d.structGen && g.top == d.Top {
		return g
	}
	*g = callGraph{serial: g.serial + 1, structGen: d.structGen, top: d.Top}
	if d.Top == nil {
		return g
	}
	fail := func(err error) {
		if g.err == nil {
			g.err = err
		}
	}
	state := make(map[*Symbol]uint8) // 0 unvisited, 1 in-stack, 2 done
	var visit func(s *Symbol)
	visit = func(s *Symbol) {
		state[s] = 1
		for _, c := range s.Calls {
			t := c.Target
			if t == nil {
				fail(fmt.Errorf("layout: symbol %q calls nil target", s.Name))
				continue
			}
			if d.byName[t.Name] != t {
				fail(fmt.Errorf("layout: symbol %q calls unregistered symbol %q", s.Name, t.Name))
			}
			switch state[t] {
			case 0:
				visit(t)
			case 1:
				fail(fmt.Errorf("layout: recursive call cycle through symbol %q", t.Name))
			}
		}
		state[s] = 2
		g.order = append(g.order, s)
	}
	visit(d.Top)
	g.callers = make(map[*Symbol][]*Symbol, len(g.order))
	for _, s := range g.order {
		for _, c := range s.Calls {
			// A caller is appended to a target's list at its first call of
			// it, so a repeat finds itself last.
			if ps := g.callers[c.Target]; c.Target != nil && (len(ps) == 0 || ps[len(ps)-1] != s) {
				g.callers[c.Target] = append(ps, s)
			}
		}
	}
	return g
}

// NewDesign creates an empty design.
func NewDesign(name string) *Design {
	return &Design{Name: name, byName: make(map[string]*Symbol)}
}

// NewSymbol creates and registers a symbol. Duplicate names are rejected.
func (d *Design) NewSymbol(name string) (*Symbol, error) {
	if _, dup := d.byName[name]; dup {
		return nil, fmt.Errorf("layout: duplicate symbol %q", name)
	}
	s := &Symbol{Name: name, ID: len(d.symbols), design: d}
	d.symbols = append(d.symbols, s)
	d.byName[name] = s
	d.structGen++
	return s, nil
}

// MustSymbol is NewSymbol for construction code with static names.
func (d *Design) MustSymbol(name string) *Symbol {
	s, err := d.NewSymbol(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Symbol looks a symbol up by name.
func (d *Design) Symbol(name string) (*Symbol, bool) {
	s, ok := d.byName[name]
	return s, ok
}

// Rename changes a registered symbol's name, keeping the lookup table
// consistent. The name is content (it is part of the own hash and of every
// violation's path), so a rename is an edit like any other and touches the
// symbol. Renaming to an existing different symbol's name panics; the
// caller is expected to have checked.
func (d *Design) Rename(s *Symbol, name string) {
	if other, exists := d.byName[name]; exists && other != s {
		panic(fmt.Sprintf("layout: rename %q to existing name %q", s.Name, name))
	}
	delete(d.byName, s.Name)
	s.Name = name
	d.byName[name] = s
	s.Touch()
}

// Symbols returns all symbols in definition order.
func (d *Design) Symbols() []*Symbol { return d.symbols }

// Validate checks structural soundness: a top symbol exists, the call
// graph is acyclic, all calls target registered symbols, and primitive
// device symbols contain no calls. The graph checks ride on the memoised
// walk, so validating an unedited design again costs one pass over the
// symbols, not over their calls.
func (d *Design) Validate() error {
	if d.Top == nil {
		return fmt.Errorf("layout: design %q has no top symbol", d.Name)
	}
	g := d.callGraph()
	if g.err != nil {
		return g.err
	}
	// Not memoised: DeviceType is a field a caller may write without Touch.
	for _, s := range g.order {
		if s.IsPrimitive() && len(s.Calls) > 0 {
			return fmt.Errorf("layout: primitive device symbol %q contains calls", s.Name)
		}
	}
	return nil
}

// Stats summarizes a design for reports.
type Stats struct {
	Symbols          int
	PrimitiveSymbols int
	Elements         int // total element definitions
	Calls            int // total call sites
	FlatElements     int // elements after full instantiation
	FlatDevices      int // device symbol instances after instantiation
}

// Stats computes design statistics from the top symbol.
func (d *Design) Stats() Stats {
	st := Stats{}
	seen := make(map[*Symbol]bool)
	// flatCounts memoizes (elements, devices) per symbol.
	type fc struct{ elems, devs int64 }
	memo := make(map[*Symbol]fc)
	var count func(s *Symbol) fc
	count = func(s *Symbol) fc {
		if v, ok := memo[s]; ok {
			return v
		}
		v := fc{elems: int64(len(s.Elements))}
		if s.IsPrimitive() {
			v.devs = 1
		}
		for _, c := range s.Calls {
			sub := count(c.Target)
			v.elems += sub.elems
			v.devs += sub.devs
		}
		memo[s] = v
		return v
	}
	var walk func(s *Symbol)
	walk = func(s *Symbol) {
		if seen[s] {
			return
		}
		seen[s] = true
		st.Symbols++
		if s.IsPrimitive() {
			st.PrimitiveSymbols++
		}
		st.Elements += len(s.Elements)
		st.Calls += len(s.Calls)
		for _, c := range s.Calls {
			walk(c.Target)
		}
	}
	if d.Top != nil {
		walk(d.Top)
		f := count(d.Top)
		st.FlatElements = int(f.elems)
		st.FlatDevices = int(f.devs)
	}
	return st
}

// SortedSymbols returns symbols reachable from Top in topological order
// (callees before callers), deterministically: children in call order. The
// slice is memoised until an edit that can change the call graph (Touch,
// NewSymbol, Rename, a new Top); do not modify it.
func (d *Design) SortedSymbols() []*Symbol { return d.callGraph().order }

// UsedLayers returns the set of layers used by reachable elements, sorted.
func (d *Design) UsedLayers() []tech.LayerID {
	set := make(map[tech.LayerID]bool)
	for _, s := range d.SortedSymbols() {
		for _, e := range s.Elements {
			set[e.Layer] = true
		}
	}
	out := make([]tech.LayerID, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
