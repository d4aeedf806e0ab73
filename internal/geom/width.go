package geom

// Width checking via shrink-expand-compare (the technique of reference [7]
// in the paper, Lindsay & Preas). The orthogonal (square structuring
// element) variant is exact for Manhattan geometry; the Euclidean variant
// exhibits the Figure 4 corner pathology, which expand.go models
// analytically.
//
// Half-integer shrink distances are handled by doubling coordinates
// internally, so odd design-rule widths are checked exactly.

// MinWidthOK reports whether every part of the region has orthogonal width
// at least w: the region equals its opening by a square of half-width w/2.
func MinWidthOK(r Region, w int64) bool {
	return len(WidthViolations(r, w)) == 0
}

// WidthViolations returns the parts of the region that are narrower than w
// in the orthogonal (L∞) sense, one bounding rect per violating connected
// sliver. A region passes iff the result is empty.
//
// The check is shrink-expand-compare: open the region with a square of
// half-width w/2 (coordinates doubled so odd w is exact) and report what
// the opening fails to recover. Unlike the Euclidean variant, the square
// opening recovers the corners of legal Manhattan geometry exactly, so
// there are no corner false errors.
func WidthViolations(r Region, w int64) []Rect {
	if w <= 0 || r.Empty() {
		return nil
	}
	// In doubled coordinates all widths are even, so "width >= 2w" is
	// equivalent to "width >= 2w-1", which is exactly what opening with a
	// square of half-width w-1 preserves (it keeps cells whose
	// (2(w-1)+1)-wide square fits). Using w itself would annihilate
	// exactly-minimum-width shapes under half-open semantics.
	r2 := r.Scale(2)
	opened := r2.Erode(w - 1).Dilate(w - 1)
	diff := r2.Subtract(opened)
	if diff.Empty() {
		return nil
	}
	comps := diff.Components()
	out := make([]Rect, 0, len(comps))
	for _, c := range comps {
		b := c.Bounds()
		out = append(out, Rect{
			floorDiv2(b.X1), floorDiv2(b.Y1),
			ceilDiv2(b.X2), ceilDiv2(b.Y2),
		})
	}
	return out
}

// Skeleton returns the paper's element skeleton: the region shrunk by half
// the minimum width of its layer (Figure 11). The true skeleton of an
// exactly-minimum-width element is its zero-area medial line, which the
// half-open region algebra cannot hold, so the skeleton is computed on a
// 4× grid eroded by 2·minWidth−1: a quarter-unit fattening of the true
// closed skeleton. With that fattening, positive-area overlap of two
// returned skeletons is exactly equivalent to the closed true skeletons
// touching, overlapping, or enclosing one another — the paper's criterion —
// because distinct disjoint closed skeletons on the half-unit lattice are
// at least half a unit apart.
//
// The returned region is in 4× coordinates; compare skeletons only with
// SkeletonsConnected.
func Skeleton(r Region, minWidth int64) Region {
	if minWidth < 1 {
		return r.Scale(4)
	}
	return r.Scale(4).Erode(2*minWidth - 1)
}

// SkeletonsConnected implements the paper's skeletal-connectivity
// criterion on skeletons produced by Skeleton: two elements are connected
// iff their (closed, true) skeletons touch, overlap, or one encloses the
// other.
//
// Note the deliberate consequence the paper turns into a usage rule
// (Figure 15, self-sufficiency): two minimum-width wires abutting
// end-to-end are NOT skeletally connected — their medial lines are half a
// width apart — so composing connectivity by butting is reported as an
// illegal connection. Overlapping by at least the minimum width is.
func SkeletonsConnected(skelA, skelB Region) bool {
	if skelA.Empty() || skelB.Empty() {
		return false
	}
	return skelA.Overlaps(skelB)
}

// SkeletalConnected is the one-shot form: it computes both skeletons at the
// layer minimum width and applies the criterion.
func SkeletalConnected(a, b Region, minWidth int64) bool {
	return SkeletonsConnected(Skeleton(a, minWidth), Skeleton(b, minWidth))
}

// SpacingViolations returns the places where regions a and b approach
// closer than s in the orthogonal (expand-check-overlap) sense: the
// intersection of a dilated by s with b. The returned rects are the
// violating overlap areas. This is the traditional technique and exhibits
// the Figure 4 corner-to-edge pathology; Euclidean checks should use
// RegionDist.
func SpacingViolations(a, b Region, s int64) []Rect {
	if s <= 0 || a.Empty() || b.Empty() {
		return nil
	}
	// Quick reject on bounding boxes.
	if a.Bounds().Expand(s).Intersect(b.Bounds()).Empty() {
		return nil
	}
	overlap := a.Dilate(s).Intersect(b)
	if overlap.Empty() {
		return nil
	}
	comps := overlap.Components()
	out := make([]Rect, 0, len(comps))
	for _, c := range comps {
		out = append(out, c.Bounds())
	}
	return out
}

func floorDiv2(v int64) int64 {
	if v >= 0 {
		return v / 2
	}
	return -((-v + 1) / 2)
}

func ceilDiv2(v int64) int64 {
	if v >= 0 {
		return (v + 1) / 2
	}
	return -(-v / 2)
}
