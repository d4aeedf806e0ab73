package geom

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func pairKey(p Pair) string {
	a, b := p.A.ID, p.B.ID
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%d-%d", a, b)
}

func TestPairFinderBasic(t *testing.T) {
	var pf PairFinder
	pf.AddRect(1, R(0, 0, 10, 10), 0)
	pf.AddRect(2, R(12, 0, 20, 10), 0) // gap 2
	pf.AddRect(3, R(40, 40, 50, 50), 0)
	var got []string
	pf.Pairs(3, nil, func(p Pair) { got = append(got, pairKey(p)) })
	if len(got) != 1 || got[0] != "1-2" {
		t.Fatalf("pairs = %v, want [1-2]", got)
	}
	got = nil
	pf.Pairs(1, nil, func(p Pair) { got = append(got, pairKey(p)) })
	if len(got) != 0 {
		t.Fatalf("pairs at gap 1 = %v, want none", got)
	}
}

func TestPairFinderFilter(t *testing.T) {
	var pf PairFinder
	pf.AddRect(1, R(0, 0, 10, 10), 7)
	pf.AddRect(2, R(5, 5, 15, 15), 7)
	pf.AddRect(3, R(8, 8, 12, 12), 9)
	count := 0
	pf.Pairs(0, func(a, b Item) bool { return a.Tag == b.Tag }, func(Pair) { count++ })
	if count != 1 {
		t.Fatalf("filtered pairs = %d, want 1 (same-tag only)", count)
	}
}

// Property: sweep output matches the brute-force oracle for any input.
func TestQuickPairFinderMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pf PairFinder
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			x := int64(rng.Intn(100))
			y := int64(rng.Intn(100))
			pf.AddRect(i, Rect{x, y, x + int64(1+rng.Intn(15)), y + int64(1+rng.Intn(15))}, 0)
		}
		gap := int64(rng.Intn(8))
		var sweep, oracle []string
		pf.Pairs(gap, nil, func(p Pair) { sweep = append(sweep, pairKey(p)) })
		pf.AllPairs(func(p Pair) {
			if p.A.Box.GapX(p.B.Box) <= gap && p.A.Box.GapY(p.B.Box) <= gap {
				oracle = append(oracle, pairKey(p))
			}
		})
		sort.Strings(sweep)
		sort.Strings(oracle)
		if len(sweep) != len(oracle) {
			return false
		}
		for i := range sweep {
			if sweep[i] != oracle[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// The cached sweep order must survive repeated Pairs calls and be rebuilt
// after the item set changes.
func TestPairsCacheInvalidation(t *testing.T) {
	var pf PairFinder
	pf.AddRect(1, R(0, 0, 10, 10), 0)
	pf.AddRect(2, R(12, 0, 20, 10), 0)
	count := func() int {
		n := 0
		pf.Pairs(3, nil, func(Pair) { n++ })
		return n
	}
	if got := count(); got != 1 {
		t.Fatalf("first call: %d pairs, want 1", got)
	}
	if got := count(); got != 1 {
		t.Fatalf("repeated call: %d pairs, want 1", got)
	}
	pf.AddRect(3, R(22, 0, 30, 10), 0) // within gap 3 of item 2 only
	if got := count(); got != 2 {
		t.Fatalf("after Add: %d pairs, want 2", got)
	}
	pf.Add(Item{ID: 4, Box: R(-4, 0, -2, 10)}) // within gap 3 of item 1 only
	if got := count(); got != 3 {
		t.Fatalf("after second Add: %d pairs, want 3", got)
	}
}

func TestRegionDistBasics(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	b := FromRectR(R(13, 14, 20, 20))
	d, pa, pb := RegionDist(a, b)
	if d != 5 {
		t.Fatalf("dist = %v, want 5", d)
	}
	if pa != Pt(10, 10) || pb != Pt(13, 14) {
		t.Fatalf("closest points = %v %v", pa, pb)
	}
	if got := RegionOrthoDist(a, b); got != 4 {
		t.Fatalf("ortho dist = %d, want 4", got)
	}
	if d, _, _ := RegionDist(a, a); d != 0 {
		t.Fatalf("self dist = %v", d)
	}
}

func TestRegionDistMultiComponent(t *testing.T) {
	// Closest approach is between the nearest components, not the bounds.
	a := FromRects([]Rect{R(0, 0, 5, 5), R(100, 100, 105, 105)})
	b := FromRects([]Rect{R(8, 0, 12, 5), R(200, 0, 205, 5)})
	d, _, _ := RegionDist(a, b)
	if d != 3 {
		t.Fatalf("dist = %v, want 3", d)
	}
}

func TestLineOfClosestApproach(t *testing.T) {
	a := FromRectR(R(0, 0, 10, 10))
	b := FromRectR(R(13, 14, 20, 20))
	dir, from, to, dist := LineOfClosestApproach(a, b)
	if dist != 5 {
		t.Fatalf("dist = %v", dist)
	}
	if from != Pt(10, 10) || to != Pt(13, 14) {
		t.Fatalf("endpoints = %v %v", from, to)
	}
	if e := (dir.X - 0.6); e > 1e-9 || e < -1e-9 {
		t.Fatalf("dir.X = %v, want 0.6", dir.X)
	}
	if e := (dir.Y - 0.8); e > 1e-9 || e < -1e-9 {
		t.Fatalf("dir.Y = %v, want 0.8", dir.Y)
	}
	// Overlapping: zero direction.
	dir, _, _, dist = LineOfClosestApproach(a, a)
	if dist != 0 || dir != (FPoint{}) {
		t.Fatalf("overlap LOCA = %v %v", dir, dist)
	}
}

// Property: RegionDist is symmetric and bounded above by orthogonal
// distance times √2, below by max-gap.
func TestQuickRegionDistBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRegion(rng, 4)
		b := randomRegion(rng, 4).Translate(Pt(40, 0))
		d1, _, _ := RegionDist(a, b)
		d2, _, _ := RegionDist(b, a)
		if d1 != d2 {
			return false
		}
		od := float64(RegionOrthoDist(a, b))
		return d1 >= od-1e-9 && d1 <= od*1.4142135624+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
