package geom

import (
	"math/rand"
	"testing"
)

// ---- Naive rect-by-rect reference implementation ----------------------
//
// The reference keeps a plain rect list and answers membership queries by
// scanning it; set operations are definitional (pointwise boolean
// combination), evaluated only at sample points. Every optimized path in
// region.go is checked against it op by op over seeded fuzz inputs.

type refRegion []Rect

func (rr refRegion) contains(p Point) bool {
	for _, r := range rr {
		if p.X >= r.X1 && p.X < r.X2 && p.Y >= r.Y1 && p.Y < r.Y2 {
			return true
		}
	}
	return false
}

// refFold unions the rects one at a time through the pairwise Union path —
// the naive accumulation loop the bulk APIs replace.
func refFold(rs []Rect) Region {
	out := EmptyRegion()
	for _, r := range rs {
		out = out.Union(FromRectR(r))
	}
	return out
}

func randRects(rng *rand.Rand, n int, span, maxW int64) []Rect {
	rs := make([]Rect, n)
	for i := range rs {
		x := int64(rng.Intn(int(span))) - span/2
		y := int64(rng.Intn(int(span))) - span/2
		w := int64(1 + rng.Intn(int(maxW)))
		h := int64(1 + rng.Intn(int(maxW)))
		rs[i] = Rect{x, y, x + w, y + h}
	}
	return rs
}

// samplePoints returns the probe grid of a rect set: every combination of
// interesting x and y coordinates (each boundary, and one unit inside and
// outside it).
func samplePoints(rs []Rect) []Point {
	var xs, ys []int64
	for _, r := range rs {
		xs = append(xs, r.X1-1, r.X1, r.X2-1, r.X2)
		ys = append(ys, r.Y1-1, r.Y1, r.Y2-1, r.Y2)
	}
	var out []Point
	for _, x := range xs {
		for _, y := range ys {
			out = append(out, Point{x, y})
		}
	}
	return out
}

// checkCanonical verifies the structural invariants of the slab form.
func checkCanonical(t *testing.T, r Region) {
	t.Helper()
	for bi, b := range r.bands {
		if b.y1 >= b.y2 {
			t.Fatalf("band %d degenerate: [%d,%d)", bi, b.y1, b.y2)
		}
		if len(b.spans) == 0 {
			t.Fatalf("band %d empty", bi)
		}
		if bi > 0 {
			prev := r.bands[bi-1]
			if prev.y2 > b.y1 {
				t.Fatalf("bands %d,%d overlap in y", bi-1, bi)
			}
			if prev.y2 == b.y1 && spansEqual(prev.spans, b.spans) {
				t.Fatalf("bands %d,%d not maximal (equal adjacent spans)", bi-1, bi)
			}
		}
		for si, s := range b.spans {
			if s.X1 >= s.X2 {
				t.Fatalf("band %d span %d degenerate", bi, si)
			}
			if si > 0 && b.spans[si-1].X2 >= s.X1 {
				t.Fatalf("band %d spans %d,%d not disjoint/merged", bi, si-1, si)
			}
		}
	}
}

func TestFromRectsMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		rs := randRects(rng, 1+rng.Intn(24), 200, 60)
		got := FromRects(rs)
		checkCanonical(t, got)
		if !got.Equal(refFold(rs)) {
			t.Fatalf("trial %d: FromRects != fold of pairwise unions\nrects: %v", trial, rs)
		}
		ref := refRegion(rs)
		for _, p := range samplePoints(rs) {
			if got.ContainsPoint(p) != ref.contains(p) {
				t.Fatalf("trial %d: membership mismatch at %v", trial, p)
			}
		}
	}
}

func TestBulkUnionMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		var regs []Region
		var all []Rect
		for i := 0; i < k; i++ {
			rs := randRects(rng, 1+rng.Intn(8), 150, 50)
			all = append(all, rs...)
			regs = append(regs, FromRects(rs))
		}
		got := BulkUnion(regs)
		checkCanonical(t, got)
		if !got.Equal(refFold(all)) {
			t.Fatalf("trial %d: BulkUnion != fold reference", trial)
		}
		var into Region
		BulkUnionInto(&into, regs)
		if !into.Equal(got) {
			t.Fatalf("trial %d: BulkUnionInto != BulkUnion", trial)
		}
		if !UnionRects(all).Equal(got) {
			t.Fatalf("trial %d: UnionRects != BulkUnion", trial)
		}
	}
}

func TestBinaryOpsMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		ra := randRects(rng, 1+rng.Intn(10), 120, 50)
		rb := randRects(rng, 1+rng.Intn(10), 120, 50)
		a, b := FromRects(ra), FromRects(rb)
		refA, refB := refRegion(ra), refRegion(rb)
		pts := samplePoints(append(append([]Rect{}, ra...), rb...))

		cases := []struct {
			name string
			got  Region
			op   func(x, y bool) bool
		}{
			{"union", a.Union(b), func(x, y bool) bool { return x || y }},
			{"intersect", a.Intersect(b), func(x, y bool) bool { return x && y }},
			{"subtract", a.Subtract(b), func(x, y bool) bool { return x && !y }},
			{"xor", a.Xor(b), func(x, y bool) bool { return x != y }},
		}
		for _, c := range cases {
			checkCanonical(t, c.got)
			for _, p := range pts {
				want := c.op(refA.contains(p), refB.contains(p))
				if c.got.ContainsPoint(p) != want {
					t.Fatalf("trial %d: %s mismatch at %v", trial, c.name, p)
				}
			}
		}

		// The *Into variants must agree with the value forms, including
		// destination aliasing and recycled storage.
		var dst Region
		UnionInto(&dst, a, b)
		if !dst.Equal(cases[0].got) {
			t.Fatalf("trial %d: UnionInto mismatch", trial)
		}
		IntersectInto(&dst, a, b) // recycles dst's storage
		if !dst.Equal(cases[1].got) {
			t.Fatalf("trial %d: IntersectInto mismatch", trial)
		}
		// Destination aliasing an input is allowed — but the alias must own
		// its storage (an *Into destination is recycled in place, so a
		// plain copy of a still-needed region would clobber it).
		alias := FromRects(ra)
		SubtractInto(&alias, alias, b)
		if !alias.Equal(cases[2].got) {
			t.Fatalf("trial %d: aliased SubtractInto mismatch", trial)
		}

		// IntersectBounds must equal the materialized intersection's bounds.
		wantB, wantOK := cases[1].got.Bounds(), !cases[1].got.Empty()
		gotB, gotOK := IntersectBounds(a, b)
		if gotOK != wantOK || (gotOK && gotB != wantB) {
			t.Fatalf("trial %d: IntersectBounds = %v,%v want %v,%v", trial, gotB, gotOK, wantB, wantOK)
		}

		// Overlaps / ContainsRegion agree with the materialized forms.
		if a.Overlaps(b) != wantOK {
			t.Fatalf("trial %d: Overlaps disagrees with Intersect", trial)
		}
		if a.ContainsRegion(b) != b.Subtract(a).Empty() {
			t.Fatalf("trial %d: ContainsRegion disagrees with Subtract", trial)
		}
	}
}

func TestDilateMatchesRectByRect(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		rs := randRects(rng, 1+rng.Intn(12), 150, 40)
		d := int64(rng.Intn(8))
		got := FromRects(rs).Dilate(d)
		checkCanonical(t, got)
		expanded := make([]Rect, len(rs))
		for i, r := range rs {
			expanded[i] = r.Expand(d)
		}
		if !got.Equal(refFold(expanded)) {
			t.Fatalf("trial %d: Dilate(%d) != union of expanded rects", trial, d)
		}
	}
}

func TestTransformByMatchesRectByRect(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	orients := []Orient{R0, R90, R180, R270, MX, MX90, MX180, MX270}
	for trial := 0; trial < 160; trial++ {
		rs := randRects(rng, 1+rng.Intn(12), 150, 40)
		tr := Transform{
			Orient: orients[rng.Intn(len(orients))],
			Trans:  Point{int64(rng.Intn(100) - 50), int64(rng.Intn(100) - 50)},
		}
		got := FromRects(rs).TransformBy(tr)
		checkCanonical(t, got)
		mapped := make([]Rect, len(rs))
		for i, r := range rs {
			mapped[i] = tr.ApplyRect(r)
		}
		if !got.Equal(refFold(mapped)) {
			t.Fatalf("trial %d: TransformBy(%v) mismatch", trial, tr)
		}
		// The slab-allocating store path must agree exactly.
		var st RegionStore
		if !st.TransformBy(FromRects(rs), tr).Equal(got) {
			t.Fatalf("trial %d: RegionStore.TransformBy(%v) mismatch", trial, tr)
		}
	}
}

// TestShiftedKernelsMatchTranslate: the offset-aware kernels — overlap,
// intersection bounds, Euclidean and orthogonal distance — equal the plain
// kernels against the materialized translation, over random regions and
// offsets that straddle, abut and clear each other.
func TestShiftedKernelsMatchTranslate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		a := FromRects(randRects(rng, 1+rng.Intn(10), 120, 50))
		b := FromRects(randRects(rng, 1+rng.Intn(10), 120, 50))
		d := Point{int64(rng.Intn(240) - 120), int64(rng.Intn(240) - 120)}
		moved := b.Translate(d)
		if got, want := OverlapsShifted(a, b, d), a.Overlaps(moved); got != want {
			t.Fatalf("trial %d: OverlapsShifted(a, b, %v) = %v, want %v\na=%v\nb=%v", trial, d, got, want, a, b)
		}
		// The stored region moved into the other frame answers the same.
		if got, want := OverlapsShifted(b, a, d.Neg()), a.Overlaps(moved); got != want {
			t.Fatalf("trial %d: OverlapsShifted(b, a, %v) = %v, want %v", trial, d.Neg(), got, want)
		}
		gotB, gotOK := IntersectBoundsShifted(a, b, d)
		if wantB, wantOK := IntersectBounds(a, moved); gotOK != wantOK || gotB != wantB {
			t.Fatalf("trial %d: IntersectBoundsShifted(a, b, %v) = %v,%v, want %v,%v", trial, d, gotB, gotOK, wantB, wantOK)
		}
		if got, want := RegionDistShifted(a, b, d), func() float64 { w, _, _ := RegionDist(a, moved); return w }(); got != want {
			t.Fatalf("trial %d: RegionDistShifted(a, b, %v) = %v, want %v", trial, d, got, want)
		}
		if got, want := RegionOrthoDistShifted(a, b, d), RegionOrthoDist(a, moved); got != want {
			t.Fatalf("trial %d: RegionOrthoDistShifted(a, b, %v) = %v, want %v", trial, d, got, want)
		}
	}
}

// ---- Allocation regression guards -------------------------------------
//
// The zero-allocation discipline of the sweep core is load-bearing: these
// guards fail the build if a change silently reintroduces per-band or
// per-call allocation. Budgets are the steady-state costs (result band
// list + span arena, i.e. 2 for value-returning forms, 0 for recycled
// *Into destinations) with one unit of slack for pool refills after a GC.

func noisyRects(n int) []Rect {
	rng := rand.New(rand.NewSource(3))
	rs := make([]Rect, n)
	for i := range rs {
		x, y := int64(rng.Intn(5000)), int64(rng.Intn(5000))
		rs[i] = R(x, y, x+int64(100+rng.Intn(400)), y+int64(100+rng.Intn(400)))
	}
	return rs
}

func TestFromRectsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guards run in the non-race CI step")
	}
	rs := noisyRects(300)
	FromRects(rs) // warm the sweeper pool
	avg := testing.AllocsPerRun(100, func() {
		_ = FromRects(rs)
	})
	if avg > 3 {
		t.Fatalf("FromRects allocates %.1f/op, want <= 3 (2 + pool slack)", avg)
	}
	var dst Region
	FromRectsInto(&dst, rs)
	avg = testing.AllocsPerRun(100, func() {
		FromRectsInto(&dst, rs)
	})
	if avg > 1 {
		t.Fatalf("FromRectsInto (warm dst) allocates %.1f/op, want <= 1", avg)
	}
}

func TestUnionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guards run in the non-race CI step")
	}
	a := FromRects(noisyRects(150))
	b := FromRects(noisyRects(150)).Translate(Point{137, 59})
	_ = a.Union(b)
	avg := testing.AllocsPerRun(100, func() {
		_ = a.Union(b)
	})
	if avg > 3 {
		t.Fatalf("Union allocates %.1f/op, want <= 3 (2 + pool slack)", avg)
	}
	var dst Region
	UnionInto(&dst, a, b)
	avg = testing.AllocsPerRun(100, func() {
		UnionInto(&dst, a, b)
	})
	if avg > 1 {
		t.Fatalf("UnionInto (warm dst) allocates %.1f/op, want <= 1", avg)
	}
}

func TestBulkUnionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guards run in the non-race CI step")
	}
	regs := []Region{
		FromRects(noisyRects(80)),
		FromRects(noisyRects(80)).Translate(Point{211, 97}),
		FromRects(noisyRects(80)).Translate(Point{-89, 401}),
		FromRects(noisyRects(80)).Translate(Point{53, -233}),
	}
	_ = BulkUnion(regs)
	avg := testing.AllocsPerRun(100, func() {
		_ = BulkUnion(regs)
	})
	if avg > 3 {
		t.Fatalf("BulkUnion allocates %.1f/op, want <= 3 (2 + pool slack)", avg)
	}
	var dst Region
	BulkUnionInto(&dst, regs)
	avg = testing.AllocsPerRun(100, func() {
		BulkUnionInto(&dst, regs)
	})
	if avg > 1 {
		t.Fatalf("BulkUnionInto (warm dst) allocates %.1f/op, want <= 1", avg)
	}
}

func TestDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guards run in the non-race CI step")
	}
	a := FromRects(noisyRects(60))
	b := FromRects(noisyRects(60)).Translate(Point{20000, 20000})
	avg := testing.AllocsPerRun(100, func() {
		_ = RegionOrthoDist(a, b)
		_, _, _ = RegionDist(a, b)
		_, _ = IntersectBounds(a, b)
	})
	if avg > 0 {
		t.Fatalf("distance/bounds kernels allocate %.1f/op, want 0", avg)
	}
}

func TestShiftedKernelsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guards run in the non-race CI step")
	}
	a := FromRects(noisyRects(60))
	b := FromRects(noisyRects(60))
	avg := testing.AllocsPerRun(100, func() {
		for _, d := range []Point{{7, -3}, {20000, 20000}} {
			_ = OverlapsShifted(a, b, d)
			_, _ = IntersectBoundsShifted(a, b, d)
			_ = RegionDistShifted(a, b, d)
			_ = RegionOrthoDistShifted(a, b, d)
		}
	})
	if avg > 0 {
		t.Fatalf("offset-aware kernels allocate %.1f/op, want 0", avg)
	}
}

// TestRegionStoreReserveAllocs: a store reserved for a region's storage
// translates it with no further allocation, and the copy is the region
// moved.
func TestRegionStoreReserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guards run in the non-race CI step")
	}
	r := FromRects(noisyRects(60))
	d := Point{40, -15}
	var got Region
	avg := testing.AllocsPerRun(100, func() {
		var st RegionStore
		st.Reserve(r.NumBands(), r.NumRects())
		got = st.Translate(r, d)
	})
	if avg > 2 {
		t.Fatalf("reserved RegionStore.Translate allocates %.1f/op, want <= 2 (the reservation)", avg)
	}
	if !got.Equal(r.Translate(d)) {
		t.Fatal("reserved RegionStore.Translate differs from Region.Translate")
	}
}
