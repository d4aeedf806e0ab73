package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomRegion builds a region from up to n random small rects; used by the
// property tests below.
func randomRegion(r *rand.Rand, n int) Region {
	k := 1 + r.Intn(n)
	rects := make([]Rect, 0, k)
	for i := 0; i < k; i++ {
		x := int64(r.Intn(60) - 30)
		y := int64(r.Intn(60) - 30)
		w := int64(1 + r.Intn(12))
		h := int64(1 + r.Intn(12))
		rects = append(rects, Rect{x, y, x + w, y + h})
	}
	return FromRects(rects)
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Values:   nil,
	}
}

func TestFromRectBasics(t *testing.T) {
	r := FromRectR(R(0, 0, 10, 5))
	if got := r.Area(); got != 50 {
		t.Fatalf("Area = %d, want 50", got)
	}
	if got := r.Bounds(); got != R(0, 0, 10, 5) {
		t.Fatalf("Bounds = %v", got)
	}
	if r.Empty() {
		t.Fatal("region should not be empty")
	}
	if !FromRectR(Rect{3, 3, 3, 9}).Empty() {
		t.Fatal("degenerate rect should give empty region")
	}
}

func TestUnionMergesTouchingRects(t *testing.T) {
	// Two rects sharing a full vertical edge must canonicalize into one.
	r := FromRects([]Rect{R(0, 0, 5, 10), R(5, 0, 9, 10)})
	if got := r.NumRects(); got != 1 {
		t.Fatalf("NumRects = %d, want 1 (edge-adjacent rects merge)", got)
	}
	if got := r.Area(); got != 90 {
		t.Fatalf("Area = %d, want 90", got)
	}
}

func TestUnionOverlapArea(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	b := FromRectR(R(5, 5, 15, 15))
	u := a.Union(b)
	if got := u.Area(); got != 175 {
		t.Fatalf("union area = %d, want 175", got)
	}
	i := a.Intersect(b)
	if got := i.Area(); got != 25 {
		t.Fatalf("intersection area = %d, want 25", got)
	}
	d := a.Subtract(b)
	if got := d.Area(); got != 75 {
		t.Fatalf("difference area = %d, want 75", got)
	}
}

func TestSubtractSplitsBands(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	hole := FromRectR(R(4, 4, 6, 6))
	d := a.Subtract(hole)
	if got := d.Area(); got != 96 {
		t.Fatalf("area = %d, want 96", got)
	}
	if d.ContainsPoint(Pt(5, 5)) {
		t.Fatal("hole center should not be contained")
	}
	if !d.ContainsPoint(Pt(1, 1)) {
		t.Fatal("corner should be contained")
	}
	// The donut must still be a single connected component.
	if got := len(d.Components()); got != 1 {
		t.Fatalf("components = %d, want 1", got)
	}
}

func TestContainsPointHalfOpen(t *testing.T) {
	r := FromRectR(R(0, 0, 4, 4))
	if !r.ContainsPoint(Pt(0, 0)) {
		t.Fatal("lower-left corner should be inside (half-open)")
	}
	if r.ContainsPoint(Pt(4, 4)) {
		t.Fatal("upper-right corner should be outside (half-open)")
	}
	if r.ContainsPoint(Pt(4, 0)) || r.ContainsPoint(Pt(0, 4)) {
		t.Fatal("upper/right edges should be outside (half-open)")
	}
}

func TestComponentsCornerAdjacency(t *testing.T) {
	// Corner-touching rects must remain separate components; edge-sharing
	// rects must fuse.
	corner := FromRects([]Rect{R(0, 0, 5, 5), R(5, 5, 10, 10)})
	if got := len(corner.Components()); got != 2 {
		t.Fatalf("corner-touching components = %d, want 2", got)
	}
	edge := FromRects([]Rect{R(0, 0, 5, 5), R(5, 0, 10, 5)})
	if got := len(edge.Components()); got != 1 {
		t.Fatalf("edge-sharing components = %d, want 1", got)
	}
	partial := FromRects([]Rect{R(0, 0, 5, 5), R(3, 5, 10, 10)})
	if got := len(partial.Components()); got != 1 {
		t.Fatalf("partial edge overlap components = %d, want 1", got)
	}
}

func TestDilateErodeBasics(t *testing.T) {
	r := FromRectR(R(10, 10, 20, 20))
	d := r.Dilate(3)
	if got := d.Bounds(); got != R(7, 7, 23, 23) {
		t.Fatalf("dilate bounds = %v", got)
	}
	if got := d.Area(); got != 16*16 {
		t.Fatalf("dilate area = %d, want 256", got)
	}
	e := r.Erode(3)
	if got := e.Bounds(); got != R(13, 13, 17, 17) {
		t.Fatalf("erode bounds = %v", got)
	}
	if !r.Erode(5).Empty() {
		t.Fatal("eroding a 10-wide rect by 5 must be empty")
	}
}

func TestErodeLShapeKeepsArms(t *testing.T) {
	l := FromRects([]Rect{R(0, 0, 30, 10), R(0, 0, 10, 30)})
	e := l.Erode(2)
	want := FromRects([]Rect{R(2, 2, 28, 8), R(2, 2, 8, 28)})
	if !e.Equal(want) {
		t.Fatalf("L erode:\n got  %v\n want %v", e, want)
	}
}

func TestOpeningIsExactForLegalManhattan(t *testing.T) {
	// Square opening (erode+dilate) must reproduce a legal-width L exactly —
	// the orthogonal check has no Figure 4 corner pathology.
	l := FromRects([]Rect{R(0, 0, 30, 10), R(0, 0, 10, 30)})
	opened := l.Erode(4).Dilate(4)
	if !opened.Equal(l) {
		t.Fatalf("opening changed a legal L:\n got  %v\n want %v", opened, l)
	}
}

func TestTranslateScaleTransform(t *testing.T) {
	r := FromRects([]Rect{R(0, 0, 4, 2), R(0, 2, 2, 4)})
	tr := r.Translate(Pt(10, 20))
	if got := tr.Bounds(); got != R(10, 20, 14, 24) {
		t.Fatalf("translate bounds = %v", got)
	}
	sc := r.Scale(3)
	if got := sc.Area(); got != r.Area()*9 {
		t.Fatalf("scale area = %d, want %d", got, r.Area()*9)
	}
	rot := r.TransformBy(NewTransform(R90, Pt(0, 0)))
	if got := rot.Area(); got != r.Area() {
		t.Fatalf("rotate area = %d, want %d", got, r.Area())
	}
	if got := rot.Bounds(); got != R(-2, 0, 0, 4).Union(R(-4, 0, -2, 2)) {
		t.Fatalf("rotate bounds = %v", got)
	}
}

func TestOverlapsAgreesWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a := randomRegion(rng, 6)
		b := randomRegion(rng, 6)
		want := !a.Intersect(b).Empty()
		if got := a.Overlaps(b); got != want {
			t.Fatalf("Overlaps=%v but Intersect empty=%v\na=%v\nb=%v", got, !want, a, b)
		}
	}
}

// Property: area is a valuation — |A∪B| + |A∩B| == |A| + |B|.
func TestQuickAreaValuation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRegion(r, 8)
		b := randomRegion(r, 8)
		return a.Union(b).Area()+a.Intersect(b).Area() == a.Area()+b.Area()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan within a frame — F\(A∪B) == (F\A)∩(F\B).
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRegion(r, 8)
		b := randomRegion(r, 8)
		frame := FromRectR(a.Bounds().Union(b.Bounds()).Expand(5))
		lhs := frame.Subtract(a.Union(b))
		rhs := frame.Subtract(a).Intersect(frame.Subtract(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: dilation distributes over union.
func TestQuickDilateDistributesOverUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRegion(r, 6)
		b := randomRegion(r, 6)
		d := int64(1 + r.Intn(4))
		lhs := a.Union(b).Dilate(d)
		rhs := a.Dilate(d).Union(b.Dilate(d))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: erosion then dilation (opening) is contained in the original;
// dilation then erosion (closing) contains the original.
func TestQuickOpeningClosingOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRegion(r, 8)
		d := int64(1 + r.Intn(4))
		opening := a.Erode(d).Dilate(d)
		closing := a.Dilate(d).Erode(d)
		return opening.Subtract(a).Empty() && a.Subtract(closing).Empty()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: erode/dilate adjunction — erode(dilate(A,d),d) ⊇ A and
// dilate(erode(A,d),d) ⊆ A, plus exact inversion for single rects.
func TestQuickErodeDilateRectExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := int64(2 + r.Intn(20))
		h := int64(2 + r.Intn(20))
		d := int64(1 + r.Intn(5))
		a := FromRectR(R(0, 0, w, h))
		return a.Dilate(d).Erode(d).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: Components partition the region — union of components equals
// the region, components are pairwise non-overlapping.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRegion(r, 10)
		comps := a.Components()
		u := EmptyRegion()
		for _, c := range comps {
			if u.Overlaps(c) {
				return false
			}
			u = u.Union(c)
		}
		return u.Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: Rects() is an exact decomposition.
func TestQuickRectsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRegion(r, 10)
		return FromRects(a.Rects()).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
