package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// nearHit is one item Near reports.
type nearHit struct {
	i int
	l tech.LayerID
	b geom.Rect
}

// nearHits collects what Near reports, in order.
func nearHits(a *SymbolArtifacts, r geom.Rect, skipDev int) []nearHit {
	var out []nearHit
	a.Near(r, skipDev, func(i int, l tech.LayerID, b geom.Rect) {
		out = append(out, nearHit{i, l, b})
	})
	return out
}

// bruteNear is Near's oracle: every item of a's subtree in index order,
// through the per-item accessors, kept when its bounds touch r and it does
// not lie in the span whose device range holds skipDev.
func bruteNear(a *SymbolArtifacts, r geom.Rect, skipDev int) []nearHit {
	lo, hi := 0, 0
	for si := range a.children {
		if sp := &a.children[si]; sp.DevStart <= skipDev && skipDev < sp.DevEnd {
			lo, hi = sp.ItemStart, sp.ItemEnd
		}
	}
	var out []nearHit
	for i := 0; i < a.NumItems(); i++ {
		if b := a.ItemBounds(i); (i < lo || i >= hi) && r.Touches(b) {
			out = append(out, nearHit{i, a.ItemLayer(i), b})
		}
	}
	return out
}

// nearDesigns are the shipped generators the query is checked on — a CMOS
// array (one shared row), unique rows, the two reoriented designs and a
// bipolar chip — and a row of npn transistors closer to one another than
// their base keepout clearance, which only the grown neighbour reach
// pairs up.
func nearDesigns() []struct {
	name string
	d    *layout.Design
	tc   *tech.Technology
} {
	nm, cm, bp := tech.NMOS(), tech.CMOS(), tech.Bipolar()
	return []struct {
		name string
		d    *layout.Design
		tc   *tech.Technology
	}{
		{"cmos-array", workload.NewCMOSChip(cm, "cmos", 3, 5).Design, cm},
		{"unique-rows", workload.NewChipUnique(nm, "uniq", 4, 6).Design, nm},
		{"oriented", workload.NewOrientedBlocks(nm), nm},
		{"families", workload.NewTranslatedFamilies(nm), nm},
		{"bipolar", workload.NewBipolarChip(bp, "bip", 4).Design, bp},
		{"npn-row", npnRow(bp), bp},
	}
}

// npnRow places five npn transistors 100 apart, inside the 200 base
// keepout clearance of the bipolar deck.
func npnRow(tc *tech.Technology) *layout.Design {
	d := layout.NewDesign("npnrow")
	q := device.NewNPN(d, tc, "npn")
	top := d.MustSymbol("top")
	w := q.Bounds().W() + 100
	for i := int64(0); i < 5; i++ {
		top.AddCall(q, geom.Translate(geom.Pt(i*w, i%2*50)), fmt.Sprintf("q%d", i))
	}
	d.Top = top
	return d
}

// TestNearMatchesBruteForce checks the proximity query on every definition
// of the shipped generators against a pass over every item's bounds:
// random probe rects, from points to most of the definition, with no
// device skipped and with a random one skipped — then half the time
// within the bounds, grown by the widest keepout clearance, of the span
// that embeds it, where the query reads only that span's neighbours.
func TestNearMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, tc := range nearDesigns() {
		inc, _, err := ExtractIncremental(tc.d, tc.tc, NewCache(), 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*SymbolArtifacts]bool{}
		hit, skips, within := 0, 0, 0
		for ii := range inc.Instances {
			a := inc.Instances[ii].Art
			if seen[a] || a.NumItems() == 0 {
				continue
			}
			seen[a] = true
			var box geom.Rect
			for i := 0; i < a.NumItems(); i++ {
				box = box.Union(a.ItemBounds(i))
			}
			w, h := box.W()+2000, box.H()+2000
			for k := 0; k < 120; k++ {
				x := box.X1 - 1000 + rng.Int63n(w)
				y := box.Y1 - 1000 + rng.Int63n(h)
				r := geom.R(x, y, x+rng.Int63n(w/(1+int64(k%4)*3)+1), y+rng.Int63n(h/(1+int64(k%4)*3)+1))
				skip := -1
				if k%2 == 1 && len(a.Devices) > 0 {
					skip = rng.Intn(len(a.Devices))
					skips++
					for si := range a.children {
						if sp := &a.children[si]; k%4 == 3 && sp.DevStart <= skip && skip < sp.DevEnd {
							e := sp.Bounds.Expand(a.nbrReach)
							x1, y1 := e.X1+rng.Int63n(e.W()+1), e.Y1+rng.Int63n(e.H()+1)
							r = geom.R(x1, y1, x1+rng.Int63n(e.X2-x1+1), y1+rng.Int63n(e.Y2-y1+1))
							within++
						}
					}
				}
				got, want := nearHits(a, r, skip), bruteNear(a, r, skip)
				if len(want) > 0 {
					hit++
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: Near(%v, skip %d) reports %d items, brute force %d", tc.name, a.Hash, r, skip, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s/%s: Near(%v, skip %d) item %d = %+v, brute force %+v", tc.name, a.Hash, r, skip, j, got[j], want[j])
					}
				}
			}
		}
		if len(seen) < 2 || within == 0 || hit < 30*len(seen) {
			t.Fatalf("%s: %d definitions, %d probes meeting an item, %d with a device skipped, %d within its span: too few to exercise the query",
				tc.name, len(seen), hit, skips, within)
		}
	}
}

// TestNearTrustsSpanBounds pins the query's pruning: a span, or a subtree
// embedded within one, whose bounds miss the probe is passed over whole,
// its items unread — on a full pass over the spans and on a keepout
// probe's pass over the skipped span's neighbours. The test moves one
// span's recorded bounds away from the items it holds; a query that read
// them anyway would report them.
func TestNearTrustsSpanBounds(t *testing.T) {
	nm, bp := tech.NMOS(), tech.Bipolar()
	extract := func(d *layout.Design, tc *tech.Technology) *SymbolArtifacts {
		inc, _, err := ExtractIncremental(d, tc, NewCache(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return inc.Root
	}
	rows, npns := extract(workload.NewChipUnique(nm, "prune", 3, 4).Design, nm), extract(npnRow(bp), bp)
	row := &rows.children[1]
	cell := &row.Art.children[2]
	q0, q1 := &npns.children[0], &npns.children[1]
	if npns.nbrAt == nil || npns.nbrReach == 0 {
		t.Fatal("the npn row has no neighbour table to probe")
	}
	far := geom.R(-1e9, -1e9, -1e9+1, -1e9+1)
	for _, tc := range []struct {
		name   string
		root   *SymbolArtifacts
		sp     *childSpan
		lo, hi int // the root items the span holds
		probe  geom.Rect
		skip   int
	}{
		{"root span", rows, row, row.ItemStart, row.ItemEnd, rows.ItemBounds(row.ItemStart), -1},
		{"nested span", rows, cell, row.ItemStart + cell.ItemStart, row.ItemStart + cell.ItemEnd,
			rows.ItemBounds(row.ItemStart + cell.ItemStart), -1},
		{"neighbour span", npns, q1, q1.ItemStart, q1.ItemEnd,
			q0.Bounds.Expand(npns.nbrReach).Intersect(q1.Bounds), q0.DevStart},
	} {
		if len(bruteNear(tc.root, tc.probe, tc.skip)) == 0 {
			t.Fatalf("%s: the probe meets nothing", tc.name)
		}
		saved := tc.sp.Bounds
		tc.sp.Bounds = far
		hits := nearHits(tc.root, tc.probe, tc.skip)
		tc.sp.Bounds = saved
		for _, h := range hits {
			if tc.lo <= h.i && h.i < tc.hi {
				t.Fatalf("%s: item %d reported although its span's bounds miss the probe", tc.name, h.i)
			}
		}
		if got := nearHits(tc.root, tc.probe, tc.skip); len(got) == len(hits) {
			t.Fatalf("%s: restoring the bounds reports nothing more", tc.name)
		}
	}
}
