package geom

import (
	"slices"
	"sort"
)

// Item is an identified bounding box registered with a PairFinder.
type Item struct {
	ID  int
	Box Rect
	Tag int // caller-defined classification (e.g. layer), carried through
}

// Pair is an unordered candidate interaction between two items
// (A.ID < B.ID is not guaranteed; A precedes B in sweep order).
type Pair struct {
	A, B Item
}

// PairFinder finds all pairs of items whose bounding boxes approach within
// a given orthogonal gap, using a plane sweep over x with an active set
// kept ordered by y: a sorted slice maintained by binary-search insertion
// (an O(active) memmove worst case, but cache-friendly and cheap at real
// active-set sizes), with a min-heap on x2 for eviction. Each event
// queries only the binary-searched y-window around it instead of scanning
// the whole active set. This is the hierarchical checker's
// interaction-candidate generator: the expected output is near-linear for
// real layouts. The sweep-ordered copy of the item set is cached across
// Pairs calls and invalidated by Add/AddRect.
//
// A PairFinder is not safe for concurrent use.
type PairFinder struct {
	items []Item

	sorted []Item // items in sweep order (X1, then ID); nil or stale when dirty
	maxH   int64  // max box height over items, for the y-window lower bound
	dirty  bool
}

// Add registers an item.
func (pf *PairFinder) Add(it Item) {
	pf.items = append(pf.items, it)
	pf.dirty = true
}

// AddRect registers a rect with the given id and tag.
func (pf *PairFinder) AddRect(id int, r Rect, tag int) {
	pf.items = append(pf.items, Item{ID: id, Box: r, Tag: tag})
	pf.dirty = true
}

// Len returns the number of registered items.
func (pf *PairFinder) Len() int { return len(pf.items) }

// ensureSorted (re)builds the cached sweep-order slice when the item set
// has changed since the last build.
func (pf *PairFinder) ensureSorted() {
	if !pf.dirty && len(pf.sorted) == len(pf.items) {
		return
	}
	pf.sorted = make([]Item, len(pf.items))
	copy(pf.sorted, pf.items)
	slices.SortFunc(pf.sorted, func(a, b Item) int {
		switch {
		case a.Box.X1 < b.Box.X1:
			return -1
		case a.Box.X1 > b.Box.X1:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	pf.maxH = 0
	for i := range pf.sorted {
		if h := pf.sorted[i].Box.H(); h > pf.maxH {
			pf.maxH = h
		}
	}
	pf.dirty = false
}

// activeEntry is one live box in the sweep's active structure. idx indexes
// the finder's sweep-ordered slice, which makes ordering ties deterministic.
type activeEntry struct {
	y1, y2 int64 // box y-extent
	x2     int64 // box right edge, for eviction
	idx    int   // index into the sweep-ordered items
}

// activeSet holds the boxes whose x-extent (plus maxGap) still reaches the
// sweep line: a slice ordered by (y1, idx) for windowed y-queries, and a
// min-heap on x2 so expired boxes are evicted in O(log n) each.
type activeSet struct {
	byY  []activeEntry // sorted by (y1, idx)
	byX2 []activeEntry // min-heap keyed on x2
}

// yPos returns the position of (y1, idx) in the y-ordered slice.
func (as *activeSet) yPos(y1 int64, idx int) int {
	return sort.Search(len(as.byY), func(i int) bool {
		e := &as.byY[i]
		return e.y1 > y1 || (e.y1 == y1 && e.idx >= idx)
	})
}

// insert adds e to both structures.
func (as *activeSet) insert(e activeEntry) {
	pos := as.yPos(e.y1, e.idx)
	as.byY = append(as.byY, activeEntry{})
	copy(as.byY[pos+1:], as.byY[pos:])
	as.byY[pos] = e

	as.byX2 = append(as.byX2, e)
	for i := len(as.byX2) - 1; i > 0; {
		p := (i - 1) / 2
		if as.byX2[p].x2 <= as.byX2[i].x2 {
			break
		}
		as.byX2[p], as.byX2[i] = as.byX2[i], as.byX2[p]
		i = p
	}
}

// evictBefore removes every entry whose x2 is < xmin.
func (as *activeSet) evictBefore(xmin int64) {
	for len(as.byX2) > 0 && as.byX2[0].x2 < xmin {
		e := as.byX2[0]
		last := len(as.byX2) - 1
		as.byX2[0] = as.byX2[last]
		as.byX2 = as.byX2[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && as.byX2[l].x2 < as.byX2[small].x2 {
				small = l
			}
			if r < last && as.byX2[r].x2 < as.byX2[small].x2 {
				small = r
			}
			if small == i {
				break
			}
			as.byX2[i], as.byX2[small] = as.byX2[small], as.byX2[i]
			i = small
		}

		pos := as.yPos(e.y1, e.idx)
		copy(as.byY[pos:], as.byY[pos+1:])
		as.byY = as.byY[:len(as.byY)-1]
	}
}

// visit calls emit for every live entry within maxGap of cur in y, in
// (y1, idx) order. maxH bounds the height of any active box, giving the
// lower end of the binary-searched window.
func (as *activeSet) visit(cur Rect, maxGap, maxH int64, emit func(idx int)) {
	yLo := cur.Y1 - maxGap - maxH
	yHi := cur.Y2 + maxGap
	start := sort.Search(len(as.byY), func(i int) bool { return as.byY[i].y1 >= yLo })
	for i := start; i < len(as.byY) && as.byY[i].y1 <= yHi; i++ {
		if as.byY[i].y2 >= cur.Y1-maxGap {
			emit(as.byY[i].idx)
		}
	}
}

// Pairs invokes fn for every unordered pair of items whose boxes are within
// maxGap of each other in the L∞ sense (touching and overlapping pairs are
// always reported). The filter, when non-nil, prunes pairs before fn (e.g.
// rejecting layer combinations with no rules). Iteration order is
// deterministic: events in sweep order, partners in y order.
func (pf *PairFinder) Pairs(maxGap int64, filter func(a, b Item) bool, fn func(Pair)) {
	pf.ensureSorted()
	items := pf.sorted
	var act activeSet
	for i := range items {
		cur := &items[i]
		act.evictBefore(cur.Box.X1 - maxGap)
		act.visit(cur.Box, maxGap, pf.maxH, func(j int) {
			other := items[j]
			if filter != nil && !filter(other, *cur) {
				return
			}
			fn(Pair{A: other, B: *cur})
		})
		act.insert(activeEntry{y1: cur.Box.Y1, y2: cur.Box.Y2, x2: cur.Box.X2, idx: i})
	}
}

// AllPairs invokes fn for every unordered pair without geometric pruning;
// useful as a correctness oracle in tests.
func (pf *PairFinder) AllPairs(fn func(Pair)) {
	for i := 0; i < len(pf.items); i++ {
		for j := i + 1; j < len(pf.items); j++ {
			fn(Pair{A: pf.items[i], B: pf.items[j]})
		}
	}
}
