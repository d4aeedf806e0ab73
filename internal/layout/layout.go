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
	"errors"
	"fmt"

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

// MaxCoord bounds the coordinates a design holds, in centimicrons: 2^30,
// about 10 m. Every element's bounds (a wire's half-width included), every
// wire width and every call offset lie within ±MaxCoord, so an element
// spans less than 2^31 on each axis and an own-geometry area stays below
// 2^62. cif.Parse and ApplyEdit refuse a result outside it (ErrTooLarge).
const MaxCoord = 1 << 30

// inCoordRange reports whether every value lies within ±MaxCoord.
func inCoordRange(vs ...int64) bool {
	for _, v := range vs {
		if v < -MaxCoord || v > MaxCoord {
			return false
		}
	}
	return true
}

// movedInRange reports whether b moved by (dx, dy) lies within ±MaxCoord,
// for a b that does: a larger move is refused before it can wrap.
func movedInRange(b geom.Rect, dx, dy int64) bool {
	return inCoordRange(dx/2, dy/2) && inCoordRange(b.X1+dx, b.Y1+dy, b.X2+dx, b.Y2+dy)
}

// CheckCoords refuses an element with a coordinate, a width or bounds
// outside ±MaxCoord. The error wraps ErrTooLarge.
func (e *Element) CheckCoords() error {
	ok := inCoordRange(e.Width, e.Box.X1, e.Box.Y1, e.Box.X2, e.Box.Y2)
	for _, pts := range [2][]geom.Point{e.Path, e.Poly} {
		for _, p := range pts {
			ok = ok && inCoordRange(p.X, p.Y)
		}
	}
	if ok {
		// With every coordinate and the width in range the bounds cannot
		// wrap, but a wire's may still pass the bound by its half-width.
		b := e.Bounds()
		ok = inCoordRange(b.X1, b.Y1, b.X2, b.Y2)
	}
	if !ok {
		return fmt.Errorf("layout: %w: %s outside ±%d", ErrTooLarge, e.Kind, MaxCoord)
	}
	return nil
}

// CheckOffset refuses a call offset outside ±MaxCoord. The error wraps
// ErrTooLarge.
func CheckOffset(d geom.Point) error {
	if !inCoordRange(d.X, d.Y) {
		return fmt.Errorf("layout: %w: call offset %v outside ±%d", ErrTooLarge, d, MaxCoord)
	}
	return nil
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

	// seq numbers the symbol's edits; touched is the number of its last
	// Touch, and moved[i] the number of element i's last TouchElement after
	// it (Touch empties moved: it may have renumbered the elements).
	seq, touched uint64
	moved        []uint64

	// design is the registering design (nil for a free-standing symbol):
	// Touch invalidates its memoised call graph.
	design *Design
	hc     hashCache
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
// stamps the edit as structural. The Add* methods do this automatically;
// call Touch after any direct write to an element's or a call's fields, or
// to the Calls slice: the content hashes are recomputed only where an edit
// number moved (see Symbol.Hashes), so an untouched write is not
// seen by any cache keyed on them. An editor that only moved element i's
// geometry should call TouchElement(i) instead, which lets a consumer
// patch what it derived from the symbol (see MovedSince).
func (s *Symbol) Touch() {
	s.bboxValid = false
	s.seq++
	s.touched, s.moved = s.seq, s.moved[:0]
	if s.design != nil {
		s.design.structGen++
		s.design.edits++
	}
}

// TouchElement stamps an in-place geometry edit of element i. Unlike Touch
// it leaves the call list, and so the design's memoised call graph, as it
// was. An out-of-range index counts as a Touch.
func (s *Symbol) TouchElement(i int) {
	if i < 0 || i >= len(s.Elements) {
		s.Touch()
		return
	}
	s.bboxValid = false
	s.seq++
	if s.design != nil {
		s.design.edits++
	}
	if n := len(s.Elements) - len(s.moved); n > 0 {
		s.moved = append(s.moved, make([]uint64, n)...)
	}
	s.moved[i] = s.seq
}

// Seq returns the symbol's edit number: it grows on every Touch and
// TouchElement.
func (s *Symbol) Seq() uint64 { return s.seq }

// MovedSince lists, in index order, the elements stamped by TouchElement
// after edit number seq. ok is false when a Touch came after seq: the
// symbol then changed by more than element moves.
func (s *Symbol) MovedSince(seq uint64) (elems []int, ok bool) {
	if s.touched > seq {
		return nil, false
	}
	for i, m := range s.moved[:min(len(s.moved), len(s.Elements))] {
		if m > seq {
			elems = append(elems, i)
		}
	}
	return elems, true
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
// for concurrent use, queries included: Validate, SortedSymbols,
// ContentHashes and Symbol.Hashes refresh memos kept on the design and its
// symbols.
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
	// the per-symbol caches are stamped with, the edits counted by every
	// Touch and TouchElement and their count as of the last pass, and the
	// serialisation buffer.
	hashPass, hashEpoch uint64
	edits, hashedEdits  uint64
	hashBuf             hashWriter
}

// maxFlat caps a design's flattened size: the symbol instances its top
// expands to, and the elements those instances hold. A few kilobytes of
// CIF in which each symbol calls the previous one twice parse to 2^n
// instances; past the cap a design is refused (ErrTooLarge) instead of
// being expanded until the process runs out of memory. 1<<22 is 42 times
// a 64×64 array chip and 2.7 times a 256×256 one.
const maxFlat = 1 << 22

// maxDepth caps a design's hierarchy depth: the symbols on its longest
// call chain from the top, the top included. Walks of the hierarchy go one
// level per frame or per step, so a few kilobytes of CIF chaining each
// symbol to the previous one once would otherwise buy a call stack as deep
// as the file is long. 1024 is fifty times the depth of any real cell
// hierarchy.
const maxDepth = 1 << 10

// ErrTooLarge is wrapped by every error that refuses a design, or an edit,
// for flattening to more than maxFlat instances or elements, for nesting
// deeper than maxDepth, or for a coordinate outside ±MaxCoord.
var ErrTooLarge = errors.New("design too large")

// errTooDeep is the refusal of a design or an edit past maxDepth.
var errTooDeep = fmt.Errorf("layout: %w: more than %d hierarchy levels", ErrTooLarge, maxDepth)

// satAdd adds two non-negative counts, saturating just past maxFlat.
func satAdd(a, b int64) int64 {
	if a+b > maxFlat {
		return maxFlat + 1
	}
	return a + b
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
	// inst counts the placements of each symbol (by ID) in the flattened
	// top, and instances their sum; both saturate past maxFlat.
	inst      []int64
	instances int64
	// level counts the symbols on the longest call chain from the top
	// down to each symbol (by ID), both included; zero for a symbol the
	// top does not reach.
	level []int64
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
	// The walk stops descending past maxDepth, so it never recurses deeper
	// than the cap; a longer chain it reaches by a shorter path first
	// shows in the levels below.
	var visit func(s *Symbol, depth int)
	visit = func(s *Symbol, depth int) {
		if depth > maxDepth {
			fail(errTooDeep)
			return
		}
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
				visit(t, depth+1)
			case 1:
				fail(fmt.Errorf("layout: recursive call cycle through symbol %q", t.Name))
			}
		}
		state[s] = 2
		g.order = append(g.order, s)
	}
	visit(d.Top, 1)
	if g.err == nil {
		// Callers before callees: a symbol's count and level are final
		// when reached.
		g.inst = make([]int64, len(d.symbols))
		g.level = make([]int64, len(d.symbols))
		g.inst[d.Top.ID], g.level[d.Top.ID] = 1, 1
		for i := len(g.order) - 1; i >= 0; i-- {
			s := g.order[i]
			n := g.inst[s.ID]
			g.instances = satAdd(g.instances, n)
			for _, c := range s.Calls {
				g.inst[c.Target.ID] = satAdd(g.inst[c.Target.ID], n)
				g.level[c.Target.ID] = max(g.level[c.Target.ID], g.level[s.ID]+1)
			}
			if g.level[s.ID] > maxDepth {
				fail(errTooDeep)
			}
		}
	}
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
// consistent. The name is not content (no hash covers it; a report writes
// it where a result enters), so a rename moves no hash, but it touches the
// symbol: the memoised walks read the name table. Renaming to an existing different symbol's name panics; the
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
// graph is acyclic, all calls target registered symbols, primitive device
// symbols contain no calls, the hierarchy is at most maxDepth levels deep,
// and the flattened design stays within maxFlat instances and elements.
// The graph checks ride on the memoised walk, so validating an unedited
// design again costs one pass over the symbols, not over their calls.
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
	return g.overCap(0, 0)
}

// overCap refuses a design that, grown by extra instances and elements,
// flattens past maxFlat.
func (g *callGraph) overCap(extraInst, extraElems int64) error {
	if satAdd(g.instances, extraInst) > maxFlat {
		return fmt.Errorf("layout: %w: more than %d symbol instances", ErrTooLarge, maxFlat)
	}
	elems := extraElems
	for _, s := range g.order {
		elems = satAdd(elems, min(int64(len(s.Elements))*g.inst[s.ID], maxFlat+1))
	}
	if elems > maxFlat {
		return fmt.Errorf("layout: %w: more than %d flattened elements", ErrTooLarge, maxFlat)
	}
	return nil
}

// checkGrowth refuses an edit that adds, to every placement of s, inst
// more symbol instances and elems more elements, if the grown design
// would flatten past maxFlat, or that hangs below s a subtree height
// symbols deep, if a chain through it would pass maxDepth. A symbol the
// top does not reach grows nothing, but its own subtree must stay within
// maxDepth.
func (d *Design) checkGrowth(s *Symbol, inst, elems, height int64) error {
	g := d.callGraph()
	if g.err != nil || d.Top == nil {
		return nil // Validate reports it; the edit changes nothing about it
	}
	if max(g.level[s.ID], 1)+height > maxDepth {
		return errTooDeep
	}
	k := g.inst[s.ID]
	return g.overCap(min(k*inst, maxFlat+1), min(k*elems, maxFlat+1))
}

// flatSize counts the instances (itself included) and the elements one
// placement of s expands to, saturating past maxFlat, and the symbols on
// its longest call chain.
func flatSize(s *Symbol, memo map[*Symbol][3]int64) (inst, elems, height int64) {
	if v, ok := memo[s]; ok {
		return v[0], v[1], v[2]
	}
	inst, elems, height = 1, min(int64(len(s.Elements)), maxFlat+1), 1
	for _, c := range s.Calls {
		i, e, h := flatSize(c.Target, memo)
		inst, elems, height = satAdd(inst, i), satAdd(elems, e), max(height, h+1)
	}
	memo[s] = [3]int64{inst, elems, height}
	return inst, elems, height
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

// Stats computes design statistics over the symbols the top reaches, read
// off the memoised call graph: each symbol counts once, and its elements
// and devices once per placement. On a call graph Validate refuses, only
// the definition counts are sure to be filled; past the size cap the
// flattened counts saturate with the placement counts.
func (d *Design) Stats() Stats {
	var st Stats
	g := d.callGraph()
	for _, s := range g.order {
		st.Symbols++
		st.Elements += len(s.Elements)
		st.Calls += len(s.Calls)
		if s.IsPrimitive() {
			st.PrimitiveSymbols++
		}
		if g.inst == nil {
			continue
		}
		n := int(g.inst[s.ID])
		st.FlatElements += n * len(s.Elements)
		if s.IsPrimitive() {
			st.FlatDevices += n
		}
	}
	return st
}

// SortedSymbols returns symbols reachable from Top in topological order
// (callees before callers), deterministically: children in call order. The
// slice is memoised until an edit that can change the call graph (Touch,
// NewSymbol, Rename, a new Top); do not modify it.
func (d *Design) SortedSymbols() []*Symbol { return d.callGraph().order }
