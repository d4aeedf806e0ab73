package cif

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Parse reads extended CIF text into a layout.Design, resolving layer names
// through the technology. If the file has top-level content (elements or
// calls outside any DS/DF), it becomes the top symbol; otherwise the last
// defined symbol is the top, matching common CIF practice.
func Parse(src string, tc *tech.Technology, designName string) (*layout.Design, error) {
	cmds, err := splitCommands(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		tech:         tc,
		design:       layout.NewDesign(designName),
		byNum:        make(map[int]*layout.Symbol),
		pendingByNum: make(map[int][]*pendingCall),
	}
	p.topSym = &layout.Symbol{Name: topName}
	for i, cmd := range cmds {
		if cmd == "" {
			continue
		}
		if err := p.command(cmd); err != nil {
			if se, ok := err.(*SyntaxError); ok {
				se.Command = i + 1
				se.Text = cmd
				return nil, se
			}
			return nil, &SyntaxError{Command: i + 1, Text: cmd, Msg: err.Error(), Err: err}
		}
		if p.ended {
			break
		}
	}
	if p.cur != nil {
		return nil, fmt.Errorf("cif: unterminated symbol definition %d", p.curNum)
	}
	if len(p.pendingAll) > 0 {
		return nil, fmt.Errorf("cif: call to undefined symbol %d", p.pendingAll[0].num)
	}
	return p.finish()
}

// topName names the top symbol Parse makes of top-level content.
const topName = "(top)"

// pendingCall records a forward-referenced C command.
type pendingCall struct {
	num  int
	from *layout.Symbol
	t    geom.Transform
	name string
}

type parser struct {
	tech   *tech.Technology
	design *layout.Design

	byNum        map[int]*layout.Symbol
	pendingByNum map[int][]*pendingCall
	pendingAll   []*pendingCall

	topSym     *layout.Symbol
	topUsed    bool
	cur        *layout.Symbol
	curNum     int
	scaleNum   int64
	scaleDen   int64
	curLayer   tech.LayerID
	layerSet   bool
	pendingNet string
	pendingIns string
	lastDef    *layout.Symbol
	ended      bool
}

func (p *parser) target() *layout.Symbol {
	if p.cur != nil {
		return p.cur
	}
	p.topUsed = true
	return p.topSym
}

// scale applies the DS distance scale a/b exactly. A distance past twice
// the coordinate bound (a box's extent may span the whole range) is
// refused, as is one whose scaling would wrap, so no arithmetic on it can.
func (p *parser) scale(v int64) (int64, error) {
	if p.cur != nil && p.scaleNum != p.scaleDen {
		if lim := math.MaxInt64 / p.scaleNum; v > lim || v < -lim {
			return 0, tooFar(v)
		}
		n := v * p.scaleNum
		if n%p.scaleDen != 0 {
			return 0, fmt.Errorf("distance %d not divisible under scale %d/%d", v, p.scaleNum, p.scaleDen)
		}
		v = n / p.scaleDen
	}
	if v > 2*layout.MaxCoord || v < -2*layout.MaxCoord {
		return 0, tooFar(v)
	}
	return v, nil
}

func tooFar(v int64) error {
	return fmt.Errorf("%w: distance %d outside ±%d", layout.ErrTooLarge, v, 2*layout.MaxCoord)
}

func (p *parser) command(cmd string) error {
	switch c := cmd[0]; {
	case c == 'D' || c == 'd':
		rest := strings.TrimSpace(cmd[1:])
		if rest == "" {
			return &SyntaxError{Msg: "bare D command"}
		}
		switch rest[0] {
		case 'S', 's':
			return p.defStart(fields(rest[1:]))
		case 'F', 'f':
			return p.defFinish()
		case 'D', 'd':
			return nil // DD (delete definitions) ignored
		}
		return &SyntaxError{Msg: "unknown D command"}
	case c == 'C' || c == 'c':
		return p.call(fields(cmd[1:]))
	case c == 'B' || c == 'b':
		return p.box(fields(cmd[1:]))
	case c == 'W' || c == 'w':
		return p.wire(fields(cmd[1:]))
	case c == 'P' || c == 'p':
		return p.polygon(fields(cmd[1:]))
	case c == 'L' || c == 'l':
		return p.layer(fields(cmd[1:]))
	case c == 'R' || c == 'r':
		return &SyntaxError{Msg: "round flash elements are not supported"}
	case c == 'E' || c == 'e':
		p.ended = true
		return nil
	case c == '9':
		return p.extension(cmd)
	case c >= '0' && c <= '8':
		return nil // other user extensions ignored
	}
	return &SyntaxError{Msg: "unknown command"}
}

func (p *parser) defStart(f []string) error {
	if p.cur != nil {
		return &SyntaxError{Msg: "nested DS"}
	}
	if len(f) < 1 {
		return &SyntaxError{Msg: "DS needs a symbol number"}
	}
	num, err := strconv.Atoi(f[0])
	if err != nil || num < 0 {
		return &SyntaxError{Msg: "bad symbol number"}
	}
	if _, dup := p.byNum[num]; dup {
		return &SyntaxError{Msg: fmt.Sprintf("symbol %d redefined", num)}
	}
	p.scaleNum, p.scaleDen = 1, 1
	if len(f) >= 3 {
		a, err1 := strconv.ParseInt(f[1], 10, 64)
		b, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil || a <= 0 || b <= 0 {
			return &SyntaxError{Msg: "bad DS scale"}
		}
		p.scaleNum, p.scaleDen = a, b
	}
	// The default name may already be some earlier symbol's declared one
	// (Write renumbers symbols and names each with a 9 command); a name
	// declared after this DS replaces the placeholder anyway.
	name := fmt.Sprintf("S%d", num)
	for _, taken := p.design.Symbol(name); taken; _, taken = p.design.Symbol(name) {
		name += "_"
	}
	sym, err := p.design.NewSymbol(name)
	if err != nil {
		return err
	}
	p.byNum[num] = sym
	p.cur = sym
	p.curNum = num
	p.layerSet = false
	p.pendingNet = ""
	p.pendingIns = ""

	// Resolve forward references to this symbol.
	for _, pc := range p.pendingByNum[num] {
		pc.from.AddCall(sym, pc.t, pc.name)
		p.removePending(pc)
	}
	delete(p.pendingByNum, num)
	return nil
}

func (p *parser) removePending(pc *pendingCall) {
	for i, v := range p.pendingAll {
		if v == pc {
			p.pendingAll = append(p.pendingAll[:i], p.pendingAll[i+1:]...)
			return
		}
	}
}

func (p *parser) defFinish() error {
	if p.cur == nil {
		return &SyntaxError{Msg: "DF outside definition"}
	}
	p.lastDef = p.cur
	p.cur = nil
	p.pendingNet = ""
	p.pendingIns = ""
	return nil
}

func (p *parser) call(f []string) error {
	if len(f) < 1 {
		return &SyntaxError{Msg: "C needs a symbol number"}
	}
	num, err := strconv.Atoi(f[0])
	if err != nil {
		return &SyntaxError{Msg: "bad call symbol number"}
	}
	t, err := p.transform(f[1:])
	if err != nil {
		return err
	}
	if err := layout.CheckOffset(t.Trans); err != nil {
		return err
	}
	name := p.pendingIns
	p.pendingIns = ""
	from := p.target()
	if sym, ok := p.byNum[num]; ok {
		from.AddCall(sym, t, name)
		return nil
	}
	pc := &pendingCall{num: num, from: from, t: t, name: name}
	p.pendingByNum[num] = append(p.pendingByNum[num], pc)
	p.pendingAll = append(p.pendingAll, pc)
	return nil
}

// transform folds a CIF transform item list (applied in order) into a
// single Manhattan transform. Inside a DS definition a T offset is a
// distance like any other and takes the definition's scale; rotation
// vectors are directions and do not.
func (p *parser) transform(f []string) (geom.Transform, error) {
	total := geom.Identity
	i := 0
	num := func() (int64, error) {
		if i >= len(f) {
			return 0, fmt.Errorf("transform list truncated")
		}
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad transform number %q", f[i])
		}
		i++
		return v, nil
	}
	for i < len(f) {
		item := f[i]
		i++
		switch item {
		case "T", "t":
			x, err := num()
			if err != nil {
				return total, err
			}
			y, err := num()
			if err != nil {
				return total, err
			}
			if x, err = p.scale(x); err != nil {
				return total, err
			}
			if y, err = p.scale(y); err != nil {
				return total, err
			}
			// Past the bound an offset is refused anyway; a sum of bounded
			// items cannot wrap before the caller's check sees it.
			if err := layout.CheckOffset(geom.Pt(x, y)); err != nil {
				return total, err
			}
			total = total.Compose(geom.Translate(geom.Pt(x, y)))
		case "M", "m":
			if i >= len(f) {
				return total, fmt.Errorf("M needs an axis")
			}
			axis := f[i]
			i++
			switch axis {
			case "X", "x":
				// CIF "M X": mirror in X direction = negate x coordinates.
				total = total.Compose(geom.NewTransform(geom.MX180, geom.Pt(0, 0)))
			case "Y", "y":
				// CIF "M Y": negate y coordinates.
				total = total.Compose(geom.NewTransform(geom.MX, geom.Pt(0, 0)))
			default:
				return total, fmt.Errorf("bad mirror axis %q", axis)
			}
		case "R", "r":
			a, err := num()
			if err != nil {
				return total, err
			}
			b, err := num()
			if err != nil {
				return total, err
			}
			o, ok := axialRotation(a, b)
			if !ok {
				return total, fmt.Errorf("non-Manhattan rotation vector (%d,%d)", a, b)
			}
			total = total.Compose(geom.NewTransform(o, geom.Pt(0, 0)))
		default:
			return total, fmt.Errorf("unknown transform item %q", item)
		}
	}
	return total, nil
}

// axialRotation maps a CIF rotation direction vector to an orientation.
func axialRotation(a, b int64) (geom.Orient, bool) {
	switch {
	case a > 0 && b == 0:
		return geom.R0, true
	case a == 0 && b > 0:
		return geom.R90, true
	case a < 0 && b == 0:
		return geom.R180, true
	case a == 0 && b < 0:
		return geom.R270, true
	}
	return geom.R0, false
}

func (p *parser) nums(f []string) ([]int64, error) {
	out := make([]int64, len(f))
	for i, s := range f {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, &SyntaxError{Msg: fmt.Sprintf("bad number %q", s)}
		}
		sv, err := p.scale(v)
		if err != nil {
			return nil, &SyntaxError{Msg: err.Error(), Err: err}
		}
		out[i] = sv
	}
	return out, nil
}

func (p *parser) needLayer() error {
	if !p.layerSet {
		return &SyntaxError{Msg: "element before any L command"}
	}
	return nil
}

func (p *parser) takeNet() string {
	n := p.pendingNet
	p.pendingNet = ""
	return n
}

func (p *parser) box(f []string) error {
	if err := p.needLayer(); err != nil {
		return err
	}
	if len(f) != 4 && len(f) != 6 {
		return &SyntaxError{Msg: "B needs w h cx cy [dx dy]"}
	}
	v, err := p.nums(f)
	if err != nil {
		return err
	}
	w, h, cx, cy := v[0], v[1], v[2], v[3]
	if len(v) == 6 {
		dx, dy := v[4], v[5]
		switch {
		case dx != 0 && dy == 0:
			// 0° or 180° rotation leaves a box unchanged.
		case dx == 0 && dy != 0:
			w, h = h, w // 90° or 270° rotation swaps extents
		default:
			return &SyntaxError{Msg: "non-Manhattan box direction"}
		}
	}
	if w <= 0 || h <= 0 {
		return &SyntaxError{Msg: "box extents must be positive"}
	}
	r := geom.Rect{X1: cx - w/2, Y1: cy - h/2, X2: cx - w/2 + w, Y2: cy - h/2 + h}
	return p.add(&layout.Element{Kind: layout.KindBox, Box: r})
}

func (p *parser) wire(f []string) error {
	if err := p.needLayer(); err != nil {
		return err
	}
	if len(f) < 3 || len(f)%2 == 0 {
		return &SyntaxError{Msg: "W needs width followed by point pairs"}
	}
	v, err := p.nums(f)
	if err != nil {
		return err
	}
	width := v[0]
	if width <= 0 {
		return &SyntaxError{Msg: "wire width must be positive"}
	}
	pts := make([]geom.Point, 0, (len(v)-1)/2)
	for i := 1; i+1 < len(v); i += 2 {
		pts = append(pts, geom.Pt(v[i], v[i+1]))
	}
	return p.add(&layout.Element{Kind: layout.KindWire, Width: width, Path: pts})
}

func (p *parser) polygon(f []string) error {
	if err := p.needLayer(); err != nil {
		return err
	}
	if len(f) < 6 || len(f)%2 != 0 {
		return &SyntaxError{Msg: "P needs at least three point pairs"}
	}
	v, err := p.nums(f)
	if err != nil {
		return err
	}
	poly := make(geom.Polygon, 0, len(v)/2)
	for i := 0; i+1 < len(v); i += 2 {
		poly = append(poly, geom.Pt(v[i], v[i+1]))
	}
	return p.add(&layout.Element{Kind: layout.KindPolygon, Poly: poly})
}

// add places e on the current layer, with the pending net, once its
// coordinates are known to lie within the bound.
func (p *parser) add(e *layout.Element) error {
	if err := e.CheckCoords(); err != nil {
		return err
	}
	e.Layer, e.Net = p.curLayer, p.takeNet()
	p.target().AddElement(e)
	return nil
}

func (p *parser) layer(f []string) error {
	if len(f) != 1 {
		return &SyntaxError{Msg: "L needs one layer name"}
	}
	id, ok := p.tech.LayerByCIF(f[0])
	if !ok {
		return &SyntaxError{Msg: fmt.Sprintf("unknown layer %q in technology %s", f[0], p.tech.Name)}
	}
	p.curLayer = id
	p.layerSet = true
	return nil
}

func (p *parser) extension(cmd string) error {
	rest := strings.TrimSpace(cmd[1:])
	if rest == "" {
		return &SyntaxError{Msg: "empty 9 extension"}
	}
	// An extension letter follows the 9 directly (9N, 9D, 9I); after a
	// blank comes a name ("9 net1", "9 inv", "9 design"), whatever letter
	// it begins with.
	switch cmd[1] {
	case 'N', 'n':
		f := fields(cmd[2:])
		if len(f) != 1 {
			return &SyntaxError{Msg: "9N needs one net name"}
		}
		p.pendingNet = f[0]
		return nil
	case 'D', 'd':
		f := fields(cmd[2:])
		if len(f) < 1 || len(f) > 2 {
			return &SyntaxError{Msg: "9D needs a device type and optional CHK"}
		}
		if p.cur == nil {
			return &SyntaxError{Msg: "9D outside symbol definition"}
		}
		p.cur.DeviceType = f[0]
		if len(f) == 2 {
			if !strings.EqualFold(f[1], "CHK") {
				return &SyntaxError{Msg: "9D flag must be CHK"}
			}
			p.cur.Checked = true
		}
		return nil
	case 'I', 'i':
		f := fields(cmd[2:])
		if len(f) != 1 {
			return &SyntaxError{Msg: "9I needs one instance name"}
		}
		p.pendingIns = f[0]
		return nil
	default:
		// Standard symbol-name extension: "9 name".
		f := fields(rest)
		if len(f) != 1 {
			return &SyntaxError{Msg: "9 needs one symbol name"}
		}
		if p.cur == nil {
			p.design.Name = f[0]
			return nil
		}
		return p.renameCurrent(f[0])
	}
}

// renameCurrent gives the symbol its declared name, keeping the SN alias
// unique in the design.
func (p *parser) renameCurrent(name string) error {
	// layout.Design does not support rename; emulate by bookkeeping: the
	// symbol keeps its registered slot but changes display name when free.
	if other, exists := p.design.Symbol(name); exists && other != p.cur {
		return &SyntaxError{Msg: fmt.Sprintf("duplicate symbol name %q", name)}
	}
	p.design.Rename(p.cur, name)
	return nil
}

// finish wires up the top symbol and validates the design.
func (p *parser) finish() (*layout.Design, error) {
	if p.topUsed && (len(p.topSym.Elements) > 0 || len(p.topSym.Calls) > 0) {
		top, err := p.design.NewSymbol(topName)
		if err != nil {
			return nil, err
		}
		// Move collected content into the registered symbol.
		for _, e := range p.topSym.Elements {
			top.AddElement(e)
		}
		for _, c := range p.topSym.Calls {
			top.AddCall(c.Target, c.T, c.Name)
		}
		p.design.Top = top
	} else if p.lastDef != nil {
		p.design.Top = p.lastDef
	} else {
		return nil, fmt.Errorf("cif: empty design")
	}
	if err := p.design.Validate(); err != nil {
		return nil, err
	}
	return p.design, nil
}
