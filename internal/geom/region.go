package geom

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Span is a half-open horizontal interval [X1, X2).
type Span struct {
	X1, X2 int64
}

// band is a horizontal slab [Y1, Y2) carrying a canonical span list:
// spans are sorted, pairwise disjoint, and non-adjacent (touching spans are
// merged), and every span is non-degenerate.
type band struct {
	y1, y2 int64
	spans  []Span
}

// Region is a finite union of axis-aligned rectangles held in canonical
// slab form: bands are sorted by y, non-overlapping, maximal (vertically
// adjacent bands with identical span lists are merged). All set semantics
// are half-open ([x1,x2)×[y1,y2)), matching area semantics: shapes that
// share only an edge or corner have disjoint interiors but an edge-sharing
// pair still fuses into a single connected component (corner-sharing does
// not), which is the physical connectivity of fabricated geometry.
//
// Regions are immutable values: every operation returns a new region (or
// writes one through an explicit *Into variant) and never mutates its
// inputs, so regions may be shared and copied freely.
//
// The zero value is the empty region and is ready to use.
type Region struct {
	// bands is the slab list. Regions built by the sweep core back every
	// band's span list with ONE shared array (the arena), and the first
	// band's slice is left with the arena's full capacity so the *Into
	// variants can recover and recycle the whole backing store — a
	// steady-state accumulation loop allocates nothing, and the Region
	// header stays one slice wide (it is embedded by value in hot checker
	// structs, where a second slice header would cost ~20% array growth).
	bands []band
}

// EmptyRegion returns an empty region.
func EmptyRegion() Region { return Region{} }

// FromRectR returns the region covering a single rect.
func FromRectR(r Rect) Region {
	if r.Empty() {
		return Region{}
	}
	return Region{bands: []band{{r.Y1, r.Y2, []Span{{r.X1, r.X2}}}}}
}

// FromRects returns the union of the given rects. Degenerate rects are
// ignored. The construction is a single y-sweep over sorted event slices
// with an incrementally maintained, x-ordered active list — no maps, no
// per-band rescans — and the result is materialized in exactly two
// allocations (the band list and one shared span arena).
func FromRects(rs []Rect) Region {
	var out Region
	FromRectsInto(&out, rs)
	return out
}

// UnionRects is FromRects under its algebraic name: the k-way union of a
// rect batch in one sweep, the bulk form callers should prefer over folding
// pairwise Union calls (which is O(n²) in total span traffic).
func UnionRects(rs []Rect) Region { return FromRects(rs) }

// FromRectsInto computes the union of rs into dst, recycling dst's band
// and span storage when capacities allow. dst must not be shared with a
// region the caller still needs (regions returned by value operations may
// alias each other; regions used as *Into destinations must be exclusively
// owned).
func FromRectsInto(dst *Region, rs []Rect) {
	sw := getSweeper()
	sw.fromRects(rs)
	sw.materialize(dst)
	putSweeper(sw)
}

// FromPolygon converts a simple rectilinear polygon to a region.
func FromPolygon(p Polygon) (Region, error) {
	rects, err := p.ToRects()
	if err != nil {
		return Region{}, err
	}
	return FromRects(rects), nil
}

// BulkUnion returns the union of all the given regions in a single k-way
// sweep: one pass over the combined band structure instead of k-1 pairwise
// sweeps over ever-growing intermediates.
func BulkUnion(regs []Region) Region {
	// A single non-empty input needs no sweep; regions are immutable, so
	// sharing its storage is safe.
	if r, n := soleNonEmpty(regs); n <= 1 {
		return r
	}
	var out Region
	bulkUnionInto(&out, regs)
	return out
}

// BulkUnionInto is BulkUnion recycling dst's storage (see FromRectsInto
// for the ownership contract).
func BulkUnionInto(dst *Region, regs []Region) {
	if r, n := soleNonEmpty(regs); n <= 1 {
		copyRegionInto(dst, r)
		return
	}
	bulkUnionInto(dst, regs)
}

func soleNonEmpty(regs []Region) (Region, int) {
	var sole Region
	n := 0
	for i := range regs {
		if !regs[i].Empty() {
			sole = regs[i]
			n++
		}
	}
	return sole, n
}

func bulkUnionInto(dst *Region, regs []Region) {
	sw := getSweeper()
	sw.bulkUnion(regs)
	sw.materialize(dst)
	putSweeper(sw)
}

// recycledArena recovers a region's span backing store for reuse: sweep-
// built regions leave the arena's full capacity on their first band's
// slice. Regions assembled any other way simply yield no capacity and a
// fresh array is allocated.
func (r *Region) recycledArena() []Span {
	if len(r.bands) == 0 {
		return nil
	}
	return r.bands[0].spans[:0]
}

// keepArenaRecoverable re-slices the first band to the arena's full
// capacity (the first band's spans always sit at the arena's start), so a
// later *Into call on this region can recycle the whole backing array.
func keepArenaRecoverable(bands []band, arena []Span) {
	if len(bands) > 0 && len(arena) > 0 && &bands[0].spans[0] == &arena[0] {
		bands[0].spans = arena[:len(bands[0].spans)]
	}
}

// copyRegionInto deep-copies src into dst, recycling dst's storage.
func copyRegionInto(dst *Region, src Region) {
	ns := src.NumRects()
	arena := dst.recycledArena()
	if cap(arena) < ns {
		arena = make([]Span, 0, ns)
	}
	bands := dst.bands
	if cap(bands) < len(src.bands) {
		bands = make([]band, len(src.bands))
	}
	bands = bands[:len(src.bands)]
	for i, b := range src.bands {
		lo := len(arena)
		arena = append(arena, b.spans...)
		bands[i] = band{b.y1, b.y2, arena[lo:len(arena):len(arena)]}
	}
	keepArenaRecoverable(bands, arena)
	dst.bands = bands
}

// ---- The sweep core ---------------------------------------------------

// Truth-table opcodes for the boolean span combiners: bit (inA<<1 | inB)
// holds the membership of the output set.
const (
	opUnion     uint8 = 0b1110
	opIntersect uint8 = 0b1000
	opSubtract  uint8 = 0b0100
	opXor       uint8 = 0b0110
)

// sweepEvent is one rect start or end edge in the FromRects y-sweep.
type sweepEvent struct {
	y   int64
	idx int32
	end bool
}

// bandMeta is one output band under construction: its spans live at
// arena[lo:hi] so the arena can grow (and reallocate) freely until
// materialize fixes the final slices.
type bandMeta struct {
	y1, y2 int64
	lo, hi int32
}

// sweeper holds every scratch buffer of the region construction sweeps.
// Instances are pooled: steady-state region algebra performs no scratch
// allocation at all, and a result region costs exactly two allocations
// (its band list and its span arena) — zero when written through an *Into
// variant whose destination has capacity.
type sweeper struct {
	events  []sweepEvent
	active  []int32
	meta    []bandMeta
	arena   []Span
	ys      []int64
	lists   [][]Span
	cursors []int
	gather  []Span
	rects   []Rect
}

var sweeperPool = sync.Pool{New: func() any { return new(sweeper) }}

func getSweeper() *sweeper {
	sw := sweeperPool.Get().(*sweeper)
	sw.meta = sw.meta[:0]
	sw.arena = sw.arena[:0]
	return sw
}

func putSweeper(sw *sweeper) {
	// Drop references into caller-owned span lists; everything else is
	// plain value scratch and safe to retain.
	for i := range sw.lists {
		sw.lists[i] = nil
	}
	sw.lists = sw.lists[:0]
	sweeperPool.Put(sw)
}

// emitBand closes the band [y1,y2) whose spans were appended at arena[lo:],
// merging it into the previous band when vertically adjacent with equal
// spans (the canonical-form maximality rule).
func (sw *sweeper) emitBand(y1, y2 int64, lo int32) {
	hi := int32(len(sw.arena))
	if y1 >= y2 || hi == lo {
		sw.arena = sw.arena[:lo]
		return
	}
	if n := len(sw.meta); n > 0 {
		prev := &sw.meta[n-1]
		if prev.y2 == y1 && spansEqual(sw.arena[prev.lo:prev.hi], sw.arena[lo:hi]) {
			prev.y2 = y2
			sw.arena = sw.arena[:lo]
			return
		}
	}
	sw.meta = append(sw.meta, bandMeta{y1, y2, lo, hi})
}

// materialize copies the staged bands into dst with exactly two
// allocations, or none when dst's recycled storage suffices.
func (sw *sweeper) materialize(dst *Region) {
	if len(sw.meta) == 0 {
		dst.bands = dst.bands[:0]
		return
	}
	arena := dst.recycledArena()
	if cap(arena) < len(sw.arena) {
		arena = make([]Span, len(sw.arena))
	} else {
		arena = arena[:len(sw.arena)]
	}
	copy(arena, sw.arena)
	bands := dst.bands
	if cap(bands) < len(sw.meta) {
		bands = make([]band, len(sw.meta))
	}
	bands = bands[:len(sw.meta)]
	for i, m := range sw.meta {
		bands[i] = band{m.y1, m.y2, arena[m.lo:m.hi:m.hi]}
	}
	keepArenaRecoverable(bands, arena)
	dst.bands = bands
}

// fromRects stages the union of rs: rect edges become a sorted event
// slice, the active set is an x-ordered list maintained incrementally by
// binary insertion/removal, and each elementary band folds the active list
// into merged spans in one linear pass (the list is already x-sorted).
func (sw *sweeper) fromRects(rs []Rect) {
	ev := sw.events[:0]
	for i := range rs {
		if !rs[i].Empty() {
			ev = append(ev,
				sweepEvent{rs[i].Y1, int32(i), false},
				sweepEvent{rs[i].Y2, int32(i), true})
		}
	}
	sw.events = ev
	if len(ev) == 0 {
		return
	}
	slices.SortFunc(ev, func(a, b sweepEvent) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		}
		return 0
	})
	active := sw.active[:0]
	for i := 0; i < len(ev); {
		y := ev[i].y
		for i < len(ev) && ev[i].y == y {
			if ev[i].end {
				active = activeRemove(active, rs, ev[i].idx)
			} else {
				active = activeInsert(active, rs, ev[i].idx)
			}
			i++
		}
		if i >= len(ev) || len(active) == 0 {
			continue
		}
		lo := int32(len(sw.arena))
		for _, id := range active {
			r := &rs[id]
			if n := len(sw.arena); int32(n) > lo && r.X1 <= sw.arena[n-1].X2 {
				if r.X2 > sw.arena[n-1].X2 {
					sw.arena[n-1].X2 = r.X2
				}
			} else {
				sw.arena = append(sw.arena, Span{r.X1, r.X2})
			}
		}
		sw.emitBand(y, ev[i].y, lo)
	}
	sw.active = active
}

// activeInsert adds rect idx to the active list, keeping it ordered by
// (X1, idx).
func activeInsert(active []int32, rs []Rect, idx int32) []int32 {
	x1 := rs[idx].X1
	lo, hi := 0, len(active)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ax := rs[active[m]].X1; ax < x1 || (ax == x1 && active[m] < idx) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	active = append(active, 0)
	copy(active[lo+1:], active[lo:])
	active[lo] = idx
	return active
}

// activeRemove deletes rect idx from the active list.
func activeRemove(active []int32, rs []Rect, idx int32) []int32 {
	x1 := rs[idx].X1
	lo, hi := 0, len(active)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ax := rs[active[m]].X1; ax < x1 || (ax == x1 && active[m] < idx) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	copy(active[lo:], active[lo+1:])
	return active[:len(active)-1]
}

// bulkUnion stages the k-way union: one pass over the merged y-edge list,
// with a band cursor per region. Slabs covered by a single region copy its
// canonical spans verbatim; two regions merge span lists directly; more
// fall back to gather-sort-merge.
func (sw *sweeper) bulkUnion(regs []Region) {
	ys := sw.ys[:0]
	for ri := range regs {
		for bi := range regs[ri].bands {
			ys = append(ys, regs[ri].bands[bi].y1, regs[ri].bands[bi].y2)
		}
	}
	sw.ys = ys
	if len(ys) == 0 {
		return
	}
	ys = dedupSortedInt64(ys)

	if cap(sw.cursors) < len(regs) {
		sw.cursors = make([]int, len(regs))
	}
	cursors := sw.cursors[:len(regs)]
	for i := range cursors {
		cursors[i] = 0
	}
	lists := sw.lists[:0]
	for k := 0; k+1 < len(ys); k++ {
		yLo, yHi := ys[k], ys[k+1]
		lists = lists[:0]
		for ri := range regs {
			bands := regs[ri].bands
			c := cursors[ri]
			for c < len(bands) && bands[c].y2 <= yLo {
				c++
			}
			cursors[ri] = c
			if c < len(bands) && bands[c].y1 <= yLo {
				lists = append(lists, bands[c].spans)
			}
		}
		lo := int32(len(sw.arena))
		switch len(lists) {
		case 0:
			continue
		case 1:
			sw.arena = append(sw.arena, lists[0]...)
		case 2:
			sw.arena = combineSpansInto(sw.arena, lists[0], lists[1], opUnion)
		default:
			gather := sw.gather[:0]
			for _, l := range lists {
				gather = append(gather, l...)
			}
			slices.SortFunc(gather, func(a, b Span) int {
				switch {
				case a.X1 < b.X1:
					return -1
				case a.X1 > b.X1:
					return 1
				}
				return 0
			})
			for _, s := range gather {
				if n := len(sw.arena); int32(n) > lo && s.X1 <= sw.arena[n-1].X2 {
					if s.X2 > sw.arena[n-1].X2 {
						sw.arena[n-1].X2 = s.X2
					}
				} else {
					sw.arena = append(sw.arena, s)
				}
			}
			sw.gather = gather
		}
		sw.emitBand(yLo, yHi, lo)
	}
	sw.lists = lists
}

// boolOp stages the pointwise boolean combination of a and b, walking the
// two band lists directly (no materialized y-edge list).
func (sw *sweeper) boolOp(a, b Region, op uint8) {
	ai, bi := 0, 0
	y := int64(math.MinInt64)
	for {
		for ai < len(a.bands) && a.bands[ai].y2 <= y {
			ai++
		}
		for bi < len(b.bands) && b.bands[bi].y2 <= y {
			bi++
		}
		aOK, bOK := ai < len(a.bands), bi < len(b.bands)
		if !aOK && !bOK {
			return
		}
		yLo := int64(math.MaxInt64)
		if aOK {
			yLo = maxInt64(y, a.bands[ai].y1)
		}
		if bOK {
			if s := maxInt64(y, b.bands[bi].y1); s < yLo {
				yLo = s
			}
		}
		yHi := int64(math.MaxInt64)
		if aOK {
			if a.bands[ai].y1 > yLo {
				yHi = a.bands[ai].y1
			} else {
				yHi = a.bands[ai].y2
			}
		}
		if bOK {
			var e int64
			if b.bands[bi].y1 > yLo {
				e = b.bands[bi].y1
			} else {
				e = b.bands[bi].y2
			}
			if e < yHi {
				yHi = e
			}
		}
		var sa, sb []Span
		if aOK && a.bands[ai].y1 <= yLo {
			sa = a.bands[ai].spans
		}
		if bOK && b.bands[bi].y1 <= yLo {
			sb = b.bands[bi].spans
		}
		lo := int32(len(sw.arena))
		sw.arena = combineSpansInto(sw.arena, sa, sb, op)
		sw.emitBand(yLo, yHi, lo)
		y = yHi
	}
}

// combineSpansInto appends op(sa, sb) to dst, walking the elementary
// x-intervals of the two canonical span lists with two cursors. Output
// spans are merged on the fly, so the appended run is canonical.
func combineSpansInto(dst []Span, sa, sb []Span, op uint8) []Span {
	ia, ib := 0, 0
	x := int64(math.MinInt64)
	n0 := len(dst)
	for {
		for ia < len(sa) && sa[ia].X2 <= x {
			ia++
		}
		for ib < len(sb) && sb[ib].X2 <= x {
			ib++
		}
		aOK, bOK := ia < len(sa), ib < len(sb)
		if !aOK && !bOK {
			return dst
		}
		xLo := int64(math.MaxInt64)
		if aOK {
			xLo = maxInt64(x, sa[ia].X1)
		}
		if bOK {
			if s := maxInt64(x, sb[ib].X1); s < xLo {
				xLo = s
			}
		}
		xHi := int64(math.MaxInt64)
		if aOK {
			if sa[ia].X1 > xLo {
				xHi = sa[ia].X1
			} else {
				xHi = sa[ia].X2
			}
		}
		if bOK {
			var e int64
			if sb[ib].X1 > xLo {
				e = sb[ib].X1
			} else {
				e = sb[ib].X2
			}
			if e < xHi {
				xHi = e
			}
		}
		var bit uint8
		if aOK && sa[ia].X1 <= xLo {
			bit = 2
		}
		if bOK && sb[ib].X1 <= xLo {
			bit |= 1
		}
		if op>>bit&1 == 1 {
			if n := len(dst); n > n0 && dst[n-1].X2 == xLo {
				dst[n-1].X2 = xHi
			} else {
				dst = append(dst, Span{xLo, xHi})
			}
		}
		x = xHi
	}
}

// boolOpInto computes op(a, b) into dst through the pooled scratch. dst
// may alias a or b: the sweep reads its inputs completely before the
// result is materialized.
func boolOpInto(dst *Region, a, b Region, op uint8) {
	sw := getSweeper()
	sw.boolOp(a, b, op)
	sw.materialize(dst)
	putSweeper(sw)
}

// boolOpAny reports whether op(a, b) is non-empty, sweeping with early
// exit and no materialization.
func boolOpAny(a, b Region, op uint8) bool {
	ai, bi := 0, 0
	y := int64(math.MinInt64)
	for {
		for ai < len(a.bands) && a.bands[ai].y2 <= y {
			ai++
		}
		for bi < len(b.bands) && b.bands[bi].y2 <= y {
			bi++
		}
		aOK, bOK := ai < len(a.bands), bi < len(b.bands)
		if !aOK && !bOK {
			return false
		}
		yLo := int64(math.MaxInt64)
		if aOK {
			yLo = maxInt64(y, a.bands[ai].y1)
		}
		if bOK {
			if s := maxInt64(y, b.bands[bi].y1); s < yLo {
				yLo = s
			}
		}
		yHi := int64(math.MaxInt64)
		if aOK {
			if a.bands[ai].y1 > yLo {
				yHi = a.bands[ai].y1
			} else {
				yHi = a.bands[ai].y2
			}
		}
		if bOK {
			var e int64
			if b.bands[bi].y1 > yLo {
				e = b.bands[bi].y1
			} else {
				e = b.bands[bi].y2
			}
			if e < yHi {
				yHi = e
			}
		}
		var sa, sb []Span
		if aOK && a.bands[ai].y1 <= yLo {
			sa = a.bands[ai].spans
		}
		if bOK && b.bands[bi].y1 <= yLo {
			sb = b.bands[bi].spans
		}
		if combineSpansAny(sa, sb, op) {
			return true
		}
		y = yHi
	}
}

// combineSpansAny reports whether op(sa, sb) is non-empty, returning at
// the first covered elementary interval. It deliberately repeats
// combineSpansInto's cursor walk (as boolOpAny repeats boolOp's band
// walk): the duplication keeps each loop closure-free and inlineable,
// which the zero-allocation discipline depends on — a change to the
// interval-boundary logic must be mirrored across all four walkers.
func combineSpansAny(sa, sb []Span, op uint8) bool {
	ia, ib := 0, 0
	x := int64(math.MinInt64)
	for {
		for ia < len(sa) && sa[ia].X2 <= x {
			ia++
		}
		for ib < len(sb) && sb[ib].X2 <= x {
			ib++
		}
		aOK, bOK := ia < len(sa), ib < len(sb)
		if !aOK && !bOK {
			return false
		}
		xLo := int64(math.MaxInt64)
		if aOK {
			xLo = maxInt64(x, sa[ia].X1)
		}
		if bOK {
			if s := maxInt64(x, sb[ib].X1); s < xLo {
				xLo = s
			}
		}
		xHi := int64(math.MaxInt64)
		if aOK {
			if sa[ia].X1 > xLo {
				xHi = sa[ia].X1
			} else {
				xHi = sa[ia].X2
			}
		}
		if bOK {
			var e int64
			if sb[ib].X1 > xLo {
				e = sb[ib].X1
			} else {
				e = sb[ib].X2
			}
			if e < xHi {
				xHi = e
			}
		}
		var bit uint8
		if aOK && sa[ia].X1 <= xLo {
			bit = 2
		}
		if bOK && sb[ib].X1 <= xLo {
			bit |= 1
		}
		if op>>bit&1 == 1 {
			return true
		}
		x = xHi
	}
}

// ---- Queries ----------------------------------------------------------

func spansEqual(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the region covers zero area.
func (r Region) Empty() bool { return len(r.bands) == 0 }

// Area returns the covered area.
func (r Region) Area() int64 {
	var a int64
	for _, b := range r.bands {
		h := b.y2 - b.y1
		for _, s := range b.spans {
			a += (s.X2 - s.X1) * h
		}
	}
	return a
}

// Bounds returns the bounding box of the region.
func (r Region) Bounds() Rect {
	if r.Empty() {
		return Rect{}
	}
	out := Rect{Y1: r.bands[0].y1, Y2: r.bands[len(r.bands)-1].y2}
	first := true
	for _, b := range r.bands {
		x1 := b.spans[0].X1
		x2 := b.spans[len(b.spans)-1].X2
		if first {
			out.X1, out.X2 = x1, x2
			first = false
			continue
		}
		out.X1 = minInt64(out.X1, x1)
		out.X2 = maxInt64(out.X2, x2)
	}
	return out
}

// Rects returns the band decomposition of the region as non-overlapping
// rects (one per band×span). The list is in canonical order.
func (r Region) Rects() []Rect {
	n := r.NumRects()
	if n == 0 {
		return nil
	}
	out := make([]Rect, 0, n)
	for _, b := range r.bands {
		for _, s := range b.spans {
			out = append(out, Rect{s.X1, b.y1, s.X2, b.y2})
		}
	}
	return out
}

// NumBands returns the number of horizontal bands of the canonical form
// (with NumRects, the storage a RegionStore needs to hold a copy).
func (r Region) NumBands() int { return len(r.bands) }

// NumRects returns the number of rects in the canonical decomposition.
func (r Region) NumRects() int {
	n := 0
	for _, b := range r.bands {
		n += len(b.spans)
	}
	return n
}

// ContainsPoint reports whether p lies in the half-open covered set.
func (r Region) ContainsPoint(p Point) bool {
	lo, hi := 0, len(r.bands)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.bands[m].y2 > p.Y {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo >= len(r.bands) || r.bands[lo].y1 > p.Y {
		return false
	}
	spans := r.bands[lo].spans
	lo, hi = 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].X2 > p.X {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo < len(spans) && spans[lo].X1 <= p.X
}

// Union returns r ∪ s.
func (r Region) Union(s Region) Region {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	var out Region
	boolOpInto(&out, r, s, opUnion)
	return out
}

// Intersect returns r ∩ s.
func (r Region) Intersect(s Region) Region {
	if r.Empty() || s.Empty() || !r.Bounds().Overlaps(s.Bounds()) {
		return Region{}
	}
	var out Region
	boolOpInto(&out, r, s, opIntersect)
	return out
}

// Subtract returns r \ s.
func (r Region) Subtract(s Region) Region {
	if r.Empty() {
		return Region{}
	}
	if s.Empty() {
		return r
	}
	var out Region
	boolOpInto(&out, r, s, opSubtract)
	return out
}

// Xor returns the symmetric difference of r and s.
func (r Region) Xor(s Region) Region {
	var out Region
	boolOpInto(&out, r, s, opXor)
	return out
}

// UnionInto computes a ∪ b into dst, recycling dst's storage. dst may
// alias a or b, but — as with every *Into variant — dst's storage must be
// exclusively owned by the caller: value operations may return regions
// that share their input's backing arrays (e.g. Union with an empty
// operand), and recycling such a region in place would corrupt the other
// alias. When unsure, use the value form.
func UnionInto(dst *Region, a, b Region) { boolOpInto(dst, a, b, opUnion) }

// IntersectInto computes a ∩ b into dst, recycling dst's storage; see
// UnionInto for the dst ownership contract.
func IntersectInto(dst *Region, a, b Region) { boolOpInto(dst, a, b, opIntersect) }

// SubtractInto computes a \ b into dst, recycling dst's storage; see
// UnionInto for the dst ownership contract.
func SubtractInto(dst *Region, a, b Region) { boolOpInto(dst, a, b, opSubtract) }

// Equal reports whether r and s cover exactly the same set.
func (r Region) Equal(s Region) bool {
	if len(r.bands) != len(s.bands) {
		return false
	}
	for i := range r.bands {
		if r.bands[i].y1 != s.bands[i].y1 || r.bands[i].y2 != s.bands[i].y2 {
			return false
		}
		if !spansEqual(r.bands[i].spans, s.bands[i].spans) {
			return false
		}
	}
	return true
}

// Overlaps reports whether r and s share any interior area, without
// materializing the intersection.
func (r Region) Overlaps(s Region) bool { return OverlapsShifted(r, s, Point{}) }

// OverlapsShifted reports whether a and b moved by d share any interior
// area: a.Overlaps(b.Translate(d)) without materializing the translation,
// so geometry stored once in one frame can be tested in another.
func OverlapsShifted(a, b Region, d Point) bool {
	ai, bi := 0, 0
	for ai < len(a.bands) && bi < len(b.bands) {
		ab, bb := &a.bands[ai], &b.bands[bi]
		by1, by2 := bb.y1+d.Y, bb.y2+d.Y
		if ab.y2 <= by1 {
			ai++
			continue
		}
		if by2 <= ab.y1 {
			bi++
			continue
		}
		if spansOverlap(ab.spans, bb.spans, d.X) {
			return true
		}
		if ab.y2 <= by2 {
			ai++
		} else {
			bi++
		}
	}
	return false
}

// spansOverlap reports whether span lists sa and sb moved by dx overlap.
func spansOverlap(sa, sb []Span, dx int64) bool {
	ia, ib := 0, 0
	for ia < len(sa) && ib < len(sb) {
		a, b := sa[ia], sb[ib]
		if a.X2 <= b.X1+dx {
			ia++
			continue
		}
		if b.X2+dx <= a.X1 {
			ib++
			continue
		}
		return true
	}
	return false
}

// IntersectBounds returns the bounding box of r ∩ s and whether the
// intersection is non-empty, without materializing the intersection
// region. It equals r.Intersect(s).Bounds() exactly.
func IntersectBounds(r, s Region) (Rect, bool) { return IntersectBoundsShifted(r, s, Point{}) }

// IntersectBoundsShifted is IntersectBounds(r, s.Translate(d)) without
// materializing the translation; the bounds are in r's frame.
func IntersectBoundsShifted(r, s Region, d Point) (Rect, bool) {
	var out Rect
	found := false
	ri, si := 0, 0
	for ri < len(r.bands) && si < len(s.bands) {
		rb, sb := &r.bands[ri], &s.bands[si]
		sy1, sy2 := sb.y1+d.Y, sb.y2+d.Y
		if rb.y2 <= sy1 {
			ri++
			continue
		}
		if sy2 <= rb.y1 {
			si++
			continue
		}
		yLo := maxInt64(rb.y1, sy1)
		yHi := minInt64(rb.y2, sy2)
		ia, ib := 0, 0
		for ia < len(rb.spans) && ib < len(sb.spans) {
			a, b := rb.spans[ia], sb.spans[ib]
			b.X1, b.X2 = b.X1+d.X, b.X2+d.X
			if a.X2 <= b.X1 {
				ia++
				continue
			}
			if b.X2 <= a.X1 {
				ib++
				continue
			}
			xLo := maxInt64(a.X1, b.X1)
			xHi := minInt64(a.X2, b.X2)
			if !found {
				out = Rect{xLo, yLo, xHi, yHi}
				found = true
			} else {
				out.X1 = minInt64(out.X1, xLo)
				out.X2 = maxInt64(out.X2, xHi)
				out.Y1 = minInt64(out.Y1, yLo)
				out.Y2 = maxInt64(out.Y2, yHi)
			}
			if a.X2 <= b.X2 {
				ia++
			} else {
				ib++
			}
		}
		if rb.y2 <= sy2 {
			ri++
		} else {
			si++
		}
	}
	return out, found
}

// OverlapsRect reports whether r shares interior area with rect q.
func (r Region) OverlapsRect(q Rect) bool {
	if q.Empty() {
		return false
	}
	return r.Overlaps(FromRectR(q))
}

// ContainsRegion reports whether s ⊆ r.
func (r Region) ContainsRegion(s Region) bool {
	return !boolOpAny(s, r, opSubtract)
}

// Clip returns r ∩ rect.
func (r Region) Clip(q Rect) Region { return r.Intersect(FromRectR(q)) }

// ---- Transforms -------------------------------------------------------

// Translate returns the region moved by d.
func (r Region) Translate(d Point) Region {
	if r.Empty() {
		return r
	}
	bands := make([]band, len(r.bands))
	arena := make([]Span, r.NumRects())
	copyAxisTransformed(bands, arena, r, false, false, d)
	keepArenaRecoverable(bands, arena)
	return Region{bands: bands}
}

// Scale returns the region with all coordinates multiplied by k (k > 0).
func (r Region) Scale(k int64) Region {
	if k <= 0 {
		panic("geom: Region.Scale requires k > 0")
	}
	if r.Empty() {
		return r
	}
	bands, arena := r.cloneStorage()
	for i := range arena {
		arena[i].X1 *= k
		arena[i].X2 *= k
	}
	for i := range bands {
		bands[i].y1 *= k
		bands[i].y2 *= k
	}
	return Region{bands: bands}
}

// cloneStorage copies the band structure into a fresh band list backed by
// a single span arena (two allocations, independent of band count).
func (r Region) cloneStorage() ([]band, []Span) {
	arena := make([]Span, 0, r.NumRects())
	bands := make([]band, len(r.bands))
	for i, b := range r.bands {
		lo := len(arena)
		arena = append(arena, b.spans...)
		bands[i] = band{b.y1, b.y2, arena[lo:len(arena):len(arena)]}
	}
	keepArenaRecoverable(bands, arena)
	return bands, arena
}

// TransformBy returns the region mapped through a Manhattan transform.
// Axis-preserving orientations (R0, R180 and the two mirrors) keep the
// band structure and rewrite coordinates in place; the four 90°-rotating
// orientations re-sweep the transformed rects.
func (r Region) TransformBy(t Transform) Region {
	if t == Identity || r.Empty() {
		return r
	}
	if negX, negY, ok := axisPreserving(t.Orient); ok {
		return r.flip(negX, negY, t.Trans)
	}
	sw := getSweeper()
	rects := sw.rects[:0]
	for _, b := range r.bands {
		for _, s := range b.spans {
			rects = append(rects, t.ApplyRect(Rect{s.X1, b.y1, s.X2, b.y2}))
		}
	}
	var out Region
	fromRectsSub(&out, rects)
	sw.rects = rects
	putSweeper(sw)
	return out
}

// fromRectsSub runs a FromRects sweep for a caller whose own pooled
// sweeper holds the input rect scratch; the sweep borrows a second one.
func fromRectsSub(dst *Region, rects []Rect) {
	inner := getSweeper()
	inner.fromRects(rects)
	inner.materialize(dst)
	putSweeper(inner)
}

// flip mirrors the region about the y axis (negX) and/or the x axis
// (negY), then translates by d. Both mirrors preserve the slab structure:
// negY reverses the band order, negX reverses each span list.
func (r Region) flip(negX, negY bool, d Point) Region {
	bands := make([]band, len(r.bands))
	arena := make([]Span, r.NumRects())
	copyAxisTransformed(bands, arena, r, negX, negY, d)
	keepArenaRecoverable(bands, arena)
	return Region{bands: bands}
}

// copyAxisTransformed writes r mapped through an axis-preserving
// transform (optional x/y negations, then a translation) into the given
// storage. bands must have length len(r.bands) and arena length
// r.NumRects(); each band's span list is carved from arena in output
// order.
func copyAxisTransformed(bands []band, arena []Span, r Region, negX, negY bool, d Point) {
	k := 0
	for i := range r.bands {
		src := &r.bands[i]
		di, y1, y2 := i, src.y1+d.Y, src.y2+d.Y
		if negY {
			di = len(bands) - 1 - i
			y1, y2 = -src.y2+d.Y, -src.y1+d.Y
		}
		n := len(src.spans)
		dst := arena[k : k+n : k+n]
		if negX {
			for j, s := range src.spans {
				dst[n-1-j] = Span{-s.X2 + d.X, -s.X1 + d.X}
			}
		} else {
			for j, s := range src.spans {
				dst[j] = Span{s.X1 + d.X, s.X2 + d.X}
			}
		}
		bands[di] = band{y1, y2, dst}
		k += n
	}
}

// axisPreserving reports whether the orientation maps bands to bands
// (no 90° rotation), and returns the corresponding coordinate negations.
func axisPreserving(o Orient) (negX, negY, ok bool) {
	switch o {
	case R0:
		return false, false, true
	case MX: // (x,y) -> (x,-y)
		return false, true, true
	case MX180: // (x,y) -> (-x,y)
		return true, false, true
	case R180: // (x,y) -> (-x,-y)
		return true, true, true
	}
	return false, false, false
}

// regionStoreChunk is the slab granularity of RegionStore.
const regionStoreChunk = 4096

// RegionStore packs the storage of many transformed regions into shared
// slab allocations: a cache that holds thousands of small regions (the
// incremental extractor's span embeddings) pays two allocations per slab
// instead of two per region. Regions built through a store are immutable
// like any other region; their span capacity is clipped so they can never
// grow into a neighbour's storage.
type RegionStore struct {
	bands []band
	spans []Span
}

func (st *RegionStore) takeBands(n int) []band {
	if cap(st.bands)-len(st.bands) < n {
		st.bands = make([]band, 0, max(n, regionStoreChunk))
	}
	out := st.bands[len(st.bands) : len(st.bands)+n : len(st.bands)+n]
	st.bands = st.bands[:len(st.bands)+n]
	return out
}

func (st *RegionStore) takeSpans(n int) []Span {
	if cap(st.spans)-len(st.spans) < n {
		st.spans = make([]Span, 0, max(n, regionStoreChunk))
	}
	out := st.spans[len(st.spans) : len(st.spans)+n : len(st.spans)+n]
	st.spans = st.spans[:len(st.spans)+n]
	return out
}

// Reserve makes room for regions totalling bands bands and spans spans in
// one allocation each, so a store filled with a known set of regions holds
// exactly their storage.
func (st *RegionStore) Reserve(bands, spans int) {
	if cap(st.bands)-len(st.bands) < bands {
		st.bands = make([]band, 0, bands)
	}
	if cap(st.spans)-len(st.spans) < spans {
		st.spans = make([]Span, 0, spans)
	}
}

// TransformBy returns r mapped through t with the result's storage drawn
// from the store when the orientation preserves the band structure;
// rotating orientations fall back to a standalone sweep.
func (st *RegionStore) TransformBy(r Region, t Transform) Region {
	if t == Identity || r.Empty() {
		return r
	}
	negX, negY, ok := axisPreserving(t.Orient)
	if !ok {
		return r.TransformBy(t)
	}
	bands := st.takeBands(len(r.bands))
	arena := st.takeSpans(r.NumRects())
	copyAxisTransformed(bands, arena, r, negX, negY, t.Trans)
	return Region{bands: bands}
}

// Translate returns r moved by d with the result's storage drawn from the
// store — TransformBy specialized to the pure-translation case, with no
// orientation dispatch on the per-span copy loop.
func (st *RegionStore) Translate(r Region, d Point) Region {
	if (d == Point{}) || r.Empty() {
		return r
	}
	bands := st.takeBands(len(r.bands))
	arena := st.takeSpans(r.NumRects())
	copyAxisTransformed(bands, arena, r, false, false, d)
	return Region{bands: bands}
}

// ---- Morphology -------------------------------------------------------

// Dilate returns the Minkowski sum of r with the square [-d,d]² (the
// paper's orthogonal expand). Dilation distributes over union, so the
// result is the sweep of the dilated canonical rects. d must be >= 0.
func (r Region) Dilate(d int64) Region {
	return r.DilateXY(d, d)
}

// DilateXY dilates by dx horizontally and dy vertically.
func (r Region) DilateXY(dx, dy int64) Region {
	if dx < 0 || dy < 0 {
		panic("geom: DilateXY requires dx,dy >= 0")
	}
	if (dx == 0 && dy == 0) || r.Empty() {
		return r
	}
	sw := getSweeper()
	rects := sw.rects[:0]
	for _, b := range r.bands {
		for _, s := range b.spans {
			rects = append(rects, Rect{s.X1 - dx, b.y1 - dy, s.X2 + dx, b.y2 + dy})
		}
	}
	var out Region
	fromRectsSub(&out, rects)
	sw.rects = rects
	putSweeper(sw)
	return out
}

// Erode returns the orthogonal shrink of r by d: the set of points whose
// surrounding [-d,d]² square lies entirely inside r. Implemented by the
// complement-dilate-complement duality within an enlarged frame.
func (r Region) Erode(d int64) Region {
	return r.ErodeXY(d, d)
}

// ErodeXY erodes by dx horizontally and dy vertically.
func (r Region) ErodeXY(dx, dy int64) Region {
	if dx < 0 || dy < 0 {
		panic("geom: ErodeXY requires dx,dy >= 0")
	}
	if (dx == 0 && dy == 0) || r.Empty() {
		return r
	}
	frame := r.Bounds().ExpandXY(2*dx+2, 2*dy+2)
	var comp Region
	SubtractInto(&comp, FromRectR(frame), r)
	comp = comp.DilateXY(dx, dy)
	var out Region
	SubtractInto(&out, r, comp)
	return out
}

// ---- Components -------------------------------------------------------

// Components splits the region into edge-connected components (corner
// adjacency does not connect, matching physical continuity of fabricated
// geometry). Components are returned in deterministic order (by their
// first canonical rect).
func (r Region) Components() []Region {
	n := r.NumRects()
	if n == 0 {
		return nil
	}
	uf := newUnionFind(n)
	// Within the canonical form, rects in the same band never touch, so it
	// suffices to link rects of vertically adjacent bands whose x intervals
	// overlap with positive length — a two-pointer walk per band seam.
	base := 0
	for bi := 0; bi+1 < len(r.bands); bi++ {
		b, nb := &r.bands[bi], &r.bands[bi+1]
		nextBase := base + len(b.spans)
		if b.y2 == nb.y1 {
			i, j := 0, 0
			for i < len(b.spans) && j < len(nb.spans) {
				sa, sb := b.spans[i], nb.spans[j]
				if sa.X2 <= sb.X1 {
					i++
					continue
				}
				if sb.X2 <= sa.X1 {
					j++
					continue
				}
				uf.union(base+i, nextBase+j)
				if sa.X2 <= sb.X2 {
					i++
				} else {
					j++
				}
			}
		}
		base = nextBase
	}
	// Label components in first-rect order, then bucket the rects with a
	// counting sort — no maps.
	comp := make([]int, n)
	rootComp := make([]int32, n)
	for i := range rootComp {
		rootComp[i] = -1
	}
	numComp := 0
	idx := 0
	for _, b := range r.bands {
		for range b.spans {
			root := uf.find(idx)
			if rootComp[root] < 0 {
				rootComp[root] = int32(numComp)
				numComp++
			}
			comp[idx] = int(rootComp[root])
			idx++
		}
	}
	if numComp == 1 {
		return []Region{r}
	}
	counts := make([]int, numComp+1)
	for _, c := range comp {
		counts[c+1]++
	}
	for c := 1; c <= numComp; c++ {
		counts[c] += counts[c-1]
	}
	rects := make([]Rect, n)
	fill := make([]int, numComp)
	idx = 0
	for _, b := range r.bands {
		for _, s := range b.spans {
			c := comp[idx]
			rects[counts[c]+fill[c]] = Rect{s.X1, b.y1, s.X2, b.y2}
			fill[c]++
			idx++
		}
	}
	out := make([]Region, numComp)
	for c := 0; c < numComp; c++ {
		FromRectsInto(&out[c], rects[counts[c]:counts[c+1]])
	}
	return out
}

// String renders a compact description for debugging.
func (r Region) String() string {
	if r.Empty() {
		return "Region{}"
	}
	var sb strings.Builder
	sb.WriteString("Region{")
	for i, b := range r.bands {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "y[%d,%d):", b.y1, b.y2)
		for _, s := range b.spans {
			fmt.Fprintf(&sb, "[%d,%d)", s.X1, s.X2)
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// unionFind is a tiny weighted union-find used for component labelling.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
