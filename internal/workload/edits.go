package workload

// Edit-script generators used by tests only (internal/layout, internal/netlist
// and internal/core share them, and Go shares helpers across test packages
// only through a non-test file). Nothing in cmd/ or the library calls them,
// so the linker drops them from the binaries.

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// RandomEdit draws one edit of any of the seven ops against any registered
// symbol — reachable or not, composite or device — with parameters that are
// sometimes invalid (a missing symbol, layer or orientation, an index out of
// range, a zero wire width, a call that would close a cycle or sit inside a
// device): layout.ApplyEdit must refuse those and leave no trace.
func RandomEdit(rng *rand.Rand, d *layout.Design, tc *tech.Technology) layout.Edit {
	syms := d.Symbols()
	pick := func() *layout.Symbol { return syms[rng.Intn(len(syms))] }
	s := pick()
	if rng.Intn(3) == 0 {
		s = d.Top // most structure hangs off the top
	}
	e := layout.Edit{Symbol: s.Name}
	if rng.Intn(25) == 0 {
		e.Symbol = "no-such-symbol"
	}
	layers := tc.Layers()
	e.Layer = layers[rng.Intn(len(layers))].Name
	if rng.Intn(15) == 0 {
		e.Layer = "no-such-layer"
	}
	// One past either end, so some indices miss.
	index := func(n int) int { return rng.Intn(2*n+3) - n - 1 }
	b := s.Bounds()
	x := b.X1 + rng.Int63n(b.X2-b.X1+1000)
	y := b.Y1 + rng.Int63n(b.Y2-b.Y1+1000)
	switch rng.Intn(7) {
	case 0:
		e.Op = layout.OpAddBox
		e.Box = []int64{x, y, x + 250 + 250*rng.Int63n(6), y + 250 + 250*rng.Int63n(6)}
	case 1:
		e.Op = layout.OpAddWire
		e.Width = 250 * rng.Int63n(4) // 0 is refused
		e.Path = []int64{x, y, x + 250*rng.Int63n(12), y}
	case 2:
		e.Op, e.Index = layout.OpDeleteElement, index(len(s.Elements))
	case 3:
		e.Op, e.Index = layout.OpMoveElement, index(len(s.Elements))
		e.DX, e.DY = 250*(rng.Int63n(5)-2), 250*(rng.Int63n(5)-2)
	case 4:
		e.Op, e.Target = layout.OpAddCall, pick().Name
		e.Orient = geom.Orient(rng.Intn(8)).String()
		if rng.Intn(15) == 0 {
			e.Orient = "R45"
		}
		e.DX, e.DY = x+40000, y+40000
	case 5:
		e.Op, e.Index = layout.OpDeleteCall, index(len(s.Calls))
	case 6:
		e.Op, e.Index = layout.OpMoveCall, index(len(s.Calls))
		e.DX, e.DY = 250*(rng.Int63n(5)-2), 250*(rng.Int63n(5)-2)
	}
	return e
}

// ActiveEdits draws edit scripts weighted toward the three electrically
// active shapes of an edit session — the ones that change the net
// partition, so that no window patch answers them and anonymous nets
// renumber:
//
//   - an element moved inside a called definition (a wire that breaks or
//     heals a connection in every instance of it),
//   - a call of the top symbol moved (a row that opens or closes a rail),
//   - a box added to the top symbol, or its last element deleted,
//
// mixed with RandomEdit's ops and with the inverses of its own earlier
// moves and adds, so that what an edit broke is later rejoined. Every edit
// is for layout.ApplyEdit, which may refuse it (an index a deletion has
// since invalidated); a refused edit changes nothing.
type ActiveEdits struct {
	rng  *rand.Rand
	undo []layout.Edit
}

// NewActiveEdits seeds a script.
func NewActiveEdits(seed int64) *ActiveEdits {
	return &ActiveEdits{rng: rand.New(rand.NewSource(seed))}
}

// Next draws the script's next edit against the design as it stands.
func (g *ActiveEdits) Next(d *layout.Design, tc *tech.Technology) layout.Edit {
	rng := g.rng
	if n := len(g.undo); n > 0 && rng.Intn(3) == 0 {
		k := rng.Intn(n)
		e := g.undo[k]
		g.undo = append(g.undo[:k], g.undo[k+1:]...)
		return e
	}
	step := func() int64 { return 250 * (1 + rng.Int63n(2)) * (1 - 2*rng.Int63n(2)) }
	top := d.Top
	switch rng.Intn(10) {
	case 0, 1, 2: // an element of a called composite definition
		var called []*layout.Symbol
		for _, s := range d.SortedSymbols() {
			if s != top && !s.IsPrimitive() && len(s.Elements) > 0 {
				called = append(called, s)
			}
		}
		if len(called) == 0 {
			break
		}
		s := called[rng.Intn(len(called))]
		e := layout.Edit{Op: layout.OpMoveElement, Symbol: s.Name, Index: rng.Intn(len(s.Elements))}
		if rng.Intn(2) == 0 {
			e.DX = step()
		} else {
			e.DY = step()
		}
		return g.withInverse(e)
	case 3, 4: // a call of the top symbol
		if len(top.Calls) == 0 {
			break
		}
		e := layout.Edit{Op: layout.OpMoveCall, Symbol: top.Name, Index: rng.Intn(len(top.Calls))}
		if rng.Intn(2) == 0 {
			e.DX = step()
		} else {
			e.DY = step()
		}
		return g.withInverse(e)
	case 5, 6: // a top-level box: over the array (it lands on something) or clear of it
		layers := tc.Layers()
		b := top.Bounds()
		x := b.X1 - 4000 + 250*rng.Int63n((b.X2-b.X1)/250+16)
		y := b.Y1 - 4000 + 250*rng.Int63n((b.Y2-b.Y1)/250+16)
		g.undo = append(g.undo, layout.Edit{Op: layout.OpDeleteElement, Symbol: top.Name, Index: -1})
		return layout.Edit{Op: layout.OpAddBox, Symbol: top.Name, Layer: layers[rng.Intn(len(layers))].Name,
			Box: []int64{x, y, x + 250 + 250*rng.Int63n(8), y + 250 + 250*rng.Int63n(8)}}
	}
	return RandomEdit(rng, d, tc)
}

// withInverse queues the move that undoes e and returns e.
func (g *ActiveEdits) withInverse(e layout.Edit) layout.Edit {
	inv := e
	inv.DX, inv.DY = -e.DX, -e.DY
	g.undo = append(g.undo, inv)
	return e
}
