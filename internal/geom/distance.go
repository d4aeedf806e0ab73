package geom

import "math"

// RegionDist returns the minimum Euclidean distance between two regions
// (0 if they touch or overlap) along with a realizing pair of points — the
// paper's "line of closest approach", along which the 2-D process model
// translates one element and evaluates the exposure function.
//
// The walk iterates the canonical band decompositions directly (no rect
// materialization, no allocation) and prunes whole band pairs by their
// vertical separation, which already lower-bounds the Euclidean distance.
func RegionDist(a, b Region) (float64, Point, Point) { return regionDist(a, b, Point{}) }

// RegionDistShifted returns the distance of RegionDist(a, b.Translate(d))
// without materializing the translation.
func RegionDistShifted(a, b Region, d Point) float64 {
	dist, _, _ := regionDist(a, b, d)
	return dist
}

// regionDist is RegionDist against b moved by d; the realizing points are
// in a's frame.
func regionDist(a, b Region, d Point) (float64, Point, Point) {
	best := math.Inf(1)
	var pa, pb Point
	for ai := range a.bands {
		ba := &a.bands[ai]
		for bi := range b.bands {
			bb := &b.bands[bi]
			if dy := bandGap(ba, bb, d.Y); float64(dy) >= best {
				if bb.y1+d.Y >= ba.y2 {
					break // later b bands are even further down-sweep
				}
				continue
			}
			for _, sa := range ba.spans {
				qa := Rect{sa.X1, ba.y1, sa.X2, ba.y2}
				for _, sb := range bb.spans {
					qb := Rect{sb.X1 + d.X, bb.y1 + d.Y, sb.X2 + d.X, bb.y2 + d.Y}
					// Cheap lower bound before the exact computation.
					if lb := float64(qa.OrthogonalDist(qb)); lb >= best {
						continue
					}
					d := qa.EuclideanDist(qb)
					if d < best {
						best = d
						pa, pb = qa.ClosestPoints(qb)
						if best == 0 {
							return 0, pa, pb
						}
					}
				}
			}
		}
	}
	return best, pa, pb
}

// bandGap returns the vertical separation of band a and band b moved by
// dy (0 when their y ranges overlap).
func bandGap(a, b *band, dy int64) int64 {
	if by1 := b.y1 + dy; a.y2 <= by1 {
		return by1 - a.y2
	}
	if by2 := b.y2 + dy; by2 <= a.y1 {
		return a.y1 - by2
	}
	return 0
}

// RegionOrthoDist returns the minimum orthogonal (L∞) separation between
// two regions: the smallest s such that dilating a by s overlaps b. This is
// the distance measured by traditional expand-check-overlap spacing.
func RegionOrthoDist(a, b Region) int64 { return RegionOrthoDistShifted(a, b, Point{}) }

// RegionOrthoDistShifted is RegionOrthoDist(a, b.Translate(d)) without
// materializing the translation.
func RegionOrthoDistShifted(a, b Region, d Point) int64 {
	var best int64 = math.MaxInt64
	for ai := range a.bands {
		ba := &a.bands[ai]
		for bi := range b.bands {
			bb := &b.bands[bi]
			if dy := bandGap(ba, bb, d.Y); dy >= best {
				if bb.y1+d.Y >= ba.y2 {
					break
				}
				continue
			}
			for _, sa := range ba.spans {
				qa := Rect{sa.X1, ba.y1, sa.X2, ba.y2}
				for _, sb := range bb.spans {
					qb := Rect{sb.X1 + d.X, bb.y1 + d.Y, sb.X2 + d.X, bb.y2 + d.Y}
					if d := qa.OrthogonalDist(qb); d < best {
						best = d
						if best == 0 {
							return 0
						}
					}
				}
			}
		}
	}
	return best
}

// LineOfClosestApproach returns the unit direction from a toward b along
// the closest-approach segment, the two endpoints, and the distance. For
// overlapping regions the direction is zero.
func LineOfClosestApproach(a, b Region) (dir FPoint, from, to Point, dist float64) {
	dist, from, to = RegionDist(a, b)
	if dist == 0 {
		return FPoint{}, from, to, 0
	}
	dx := float64(to.X - from.X)
	dy := float64(to.Y - from.Y)
	n := math.Hypot(dx, dy)
	return FPoint{dx / n, dy / n}, from, to, dist
}
