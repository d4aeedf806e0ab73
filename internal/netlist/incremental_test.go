package netlist

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// sortedPairs returns a copy of ps in canonical order for set comparison.
func sortedPairs(ps [][2]int) [][2]int {
	out := make([][2]int, len(ps))
	copy(out, ps)
	for i := range out {
		if out[i][0] > out[i][1] {
			out[i][0], out[i][1] = out[i][1], out[i][0]
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// resolvedItems resolves every item index of the extraction's root: the
// chip's items in walk order, each in chip coordinates (its region moved
// too) with its global net.
func resolvedItems(x *IncExtraction) []ConnItem {
	out := make([]ConnItem, x.Root.NumItems())
	for i := range out {
		it, off := x.Root.ResolveItem(i)
		it.Reg = it.Reg.Translate(off)
		out[i] = it
	}
	return out
}

// diffExtractions fails the test unless the two extractions are equal item
// for item (illegal pairs compared as sets: their discovery order depends
// on which definitions a warm cache re-derived).
func diffExtractions(t *testing.T, label string, inc, full *IncExtraction) {
	t.Helper()
	incItems, fullItems := resolvedItems(inc), resolvedItems(full)
	if len(incItems) != len(fullItems) {
		t.Fatalf("%s: item count %d != %d", label, len(incItems), len(fullItems))
	}
	for i := range incItems {
		a, b := incItems[i], fullItems[i]
		if a.Layer != b.Layer || a.Bounds != b.Bounds || a.Net != b.Net ||
			a.Dev != b.Dev || a.Elem != b.Elem || a.Path != b.Path {
			t.Fatalf("%s: item %d differs:\n inc: %+v\nfull: %+v", label, i, a, b)
		}
		if !reflect.DeepEqual(a.Reg, b.Reg) {
			t.Fatalf("%s: item %d region differs", label, i)
		}
	}
	if !reflect.DeepEqual(sortedPairs(inc.IllegalPairs), sortedPairs(full.IllegalPairs)) {
		t.Fatalf("%s: illegal pairs differ:\n inc: %v\nfull: %v",
			label, sortedPairs(inc.IllegalPairs), sortedPairs(full.IllegalPairs))
	}
	if !reflect.DeepEqual(inc.Gates, full.Gates) {
		t.Fatalf("%s: gates differ", label)
	}
	if !reflect.DeepEqual(inc.BaseKeepouts, full.BaseKeepouts) {
		t.Fatalf("%s: base keepouts differ", label)
	}
	diffNetlists(t, label, inc.Netlist, full.Netlist)
}

func diffNetlists(t *testing.T, label string, a, b *Netlist) {
	t.Helper()
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("%s: net count %d != %d", label, len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		// A net's bounds are NetBounds(i): a window-patched netlist keeps
		// its moved nets' bounds beside the shared array.
		na, nb := a.Nets[i], b.Nets[i]
		na.bounds, nb.bounds = a.NetBounds(i), b.NetBounds(i)
		if !reflect.DeepEqual(na, nb) {
			t.Fatalf("%s: net %d differs:\n inc: %+v\nfull: %+v", label, i, na, nb)
		}
	}
	if len(a.Devices) != len(b.Devices) {
		t.Fatalf("%s: device count %d != %d", label, len(a.Devices), len(b.Devices))
	}
	for i := range a.Devices {
		da, db := a.Devices[i], b.Devices[i]
		if da.Path != db.Path || da.Info.Type != db.Info.Type || da.Info.Class != db.Info.Class || da.T != db.T {
			t.Fatalf("%s: device %d differs:\n inc: %+v\nfull: %+v", label, i, da, db)
		}
		if !reflect.DeepEqual(da.TerminalNets, db.TerminalNets) {
			t.Fatalf("%s: device %d terminal nets differ: %v vs %v",
				label, i, da.TerminalNets, db.TerminalNets)
		}
	}
	if !reflect.DeepEqual(a.byName, b.byName) {
		t.Fatalf("%s: name tables differ", label)
	}
}

func diffIssues(t *testing.T, label string, a, b []Issue) {
	t.Helper()
	if len(a) == 0 && len(b) == 0 {
		return
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: issues differ:\n inc: %v\nfull: %v", label, a, b)
	}
}

// checkIncrementalMatch extracts the design through cache c and fails the
// test unless the result equals, item for item, a cold extraction on a
// fresh cache.
func checkIncrementalMatch(t *testing.T, label string, d *layout.Design, tc *tech.Technology, c *Cache) {
	t.Helper()
	full, fullIssues, fullErr := ExtractIncremental(d, tc, NewCache(), 1)
	inc, incIssues, incErr := ExtractIncremental(d, tc, c, 1)
	if (fullErr == nil) != (incErr == nil) {
		t.Fatalf("%s: error mismatch: cold=%v through cache=%v", label, fullErr, incErr)
	}
	if fullErr != nil {
		return
	}
	diffIssues(t, label, incIssues, fullIssues)
	diffExtractions(t, label, inc, full)

	// The instance tree must tile the root's items exactly.
	for ii := 1; ii < len(inc.Instances); ii++ {
		in := inc.Instances[ii]
		end := in.ItemStart + in.Art.NumItems()
		if in.ItemStart < 0 || end > inc.Root.NumItems() {
			t.Fatalf("%s: instance %d item range [%d,%d) out of bounds", label, ii, in.ItemStart, end)
		}
		for k := 0; k < in.Art.NumItems(); k++ {
			li, _ := in.Art.ResolveItem(k)
			g, _ := inc.Root.ResolveItem(in.ItemStart + k)
			if g.Layer != li.Layer || g.Dev >= 0 != (li.Dev >= 0) || g.Elem != li.Elem {
				t.Fatalf("%s: instance %d item %d does not correspond to def item", label, ii, k)
			}
			if g.Bounds != in.T.ApplyRect(li.Bounds) {
				t.Fatalf("%s: instance %d item %d bounds not the transform of def bounds", label, ii, k)
			}
		}
	}
}

func TestIncrementalMatchesFull(t *testing.T) {
	tc := tech.NMOS()
	c := NewCache()

	chip := workload.NewChip(tc, "clean", 4, 5)
	checkIncrementalMatch(t, "clean 4x5", chip.Design, tc, c)

	dirty := workload.NewChip(tc, "dirty", 6, 7)
	workload.InjectErrors(dirty, 20, 1980)
	checkIncrementalMatch(t, "dirty 6x7", dirty.Design, tc, NewCache())

	bip := workload.NewBipolarChip(tech.Bipolar(), "bip", 6)
	bip.BreakIsolation(2)
	checkIncrementalMatch(t, "bipolar", bip.Design, tech.Bipolar(), NewCache())

	for _, p := range workload.AllPathologies() {
		checkIncrementalMatch(t, "pathology "+p.Name, p.Design, p.Tech, NewCache())
	}
}

// TestIncrementalWarmMatchesFull mutates one symbol and re-extracts with a
// warm cache: the result must equal a cold extraction of the mutated design.
func TestIncrementalWarmMatchesFull(t *testing.T) {
	tc := tech.NMOS()
	c := NewCache()
	chip := workload.NewChip(tc, "warm", 4, 6)
	if _, _, err := ExtractIncremental(chip.Design, tc, c, 1); err != nil {
		t.Fatal(err)
	}

	// Edit 1: add a wire to the top symbol.
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	chip.Design.Top.AddWire(metalL, 750, "", geom.Pt(-20000, 0), geom.Pt(-20000, 8000))
	checkIncrementalMatch(t, "top edit", chip.Design, tc, c)

	// Edit 2: mutate the shared cell symbol (dirties every instance).
	inv, ok := chip.Design.Symbol("inv")
	if !ok {
		t.Fatal("no inv symbol")
	}
	inv.AddBox(metalL, geom.R(-1000, 5000, 0, 5750), "")
	checkIncrementalMatch(t, "cell edit", chip.Design, tc, c)

	// Edit 3: declare a net on an existing element (changes names only).
	chip.Design.Top.Elements[0].Net = "trunkprobe"
	chip.Design.Top.Touch() // a direct write: the hashes are cached behind it
	checkIncrementalMatch(t, "net rename", chip.Design, tc, c)
}

// TestPatchedRunsAgeNothing: a run the root patch answers builds nothing and
// retires nothing, so it must not count toward evictAge — after a streak of
// patched runs twice that long, every definition is still answered from the
// cache (an edit of one row and its undo derive no embedding anew) — and
// what a live root reaches never ages, while what edits leave behind still
// does: over 200 edits that alternate a patched probe move with a drifting
// row edit, the cache stays within evictAge generations of its cold size.
// The edited row draws a box no other row draws: the rows of NewChipUnique
// are twins that share one artifact, which the others keep live.
func TestPatchedRunsAgeNothing(t *testing.T) {
	tc := tech.NMOS()
	d := workload.NewChipUnique(tc, "age", 4, 5).Design
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	d.Top.AddBox(metalL, geom.R(-15000, 0, -14250, 1000), "")
	row, _ := d.Symbol("row2")
	row.AddBox(metalL, geom.R(-15000, 3000, -14250, 4000), "")
	c := NewCache()
	if _, _, err := ExtractIncremental(d, tc, c, 1); err != nil {
		t.Fatal(err)
	}
	coldArts, coldSpans := c.Len(), len(c.spans)

	edit := func(e layout.Edit) {
		t.Helper()
		if err := layout.ApplyEdit(d, tc, e); err != nil {
			t.Fatal(err)
		}
	}
	// run re-extracts and reports whether the patch answered.
	run := func() bool {
		t.Helper()
		inc, _, err := ExtractIncremental(d, tc, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		return inc.Patch != nil
	}
	dy := int64(250)
	moveProbe := func() {
		edit(layout.Edit{Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: dy})
		dy = -dy
	}

	for i := 0; i < 2*evictAge+1; i++ {
		moveProbe()
		if !run() {
			t.Fatalf("streak run %d: the root patch refused", i)
		}
	}
	if c.Len() != coldArts || len(c.spans) != coldSpans {
		t.Fatalf("after the streak: %d artifacts and %d spans, cold run left %d and %d", c.Len(), len(c.spans), coldArts, coldSpans)
	}
	rowHash := row.Hashes().Subtree
	edit(layout.Edit{Op: layout.OpMoveElement, Symbol: "row2", Index: 0, DY: 250})
	if run() {
		t.Fatal("a row edit was answered by the root patch")
	}
	edit(layout.Edit{Op: layout.OpMoveElement, Symbol: "row2", Index: 0, DY: -250})
	if c.heldArt(rowHash) == nil {
		t.Fatal("the streak aged the row's artifacts out of the cache")
	}
	hits, misses := c.ContextStats()
	run()
	if h, m := c.ContextStats(); h != hits || m != misses {
		t.Fatalf("the undo derived %d and built %d embeddings; want all of them cached", h-hits, m-misses)
	}

	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			moveProbe()
		} else {
			edit(layout.Edit{Op: layout.OpMoveElement, Symbol: "row2", Index: 0, DY: 250}) // drifts: every state is new
		}
		if patched := run(); patched != (i%2 == 0) {
			t.Fatalf("edit %d: patched = %v", i, patched)
		}
		if c.Len() < coldArts || len(c.spans) < coldSpans {
			t.Fatalf("edit %d: %d artifacts and %d spans left of the %d and %d the root reaches", i, c.Len(), len(c.spans), coldArts, coldSpans)
		}
		// One edited row leaves one artifact and one embedding behind.
		if c.Len() > coldArts+evictAge || len(c.spans) > coldSpans+evictAge {
			t.Fatalf("edit %d: cache grew to %d artifacts and %d spans from %d and %d", i, c.Len(), len(c.spans), coldArts, coldSpans)
		}
	}
	if c.heldArt(rowHash) != nil {
		t.Fatal("the row state left behind 100 edits ago was never evicted")
	}
}

// TestAnalysisCacheEvicted: the device-analysis memo ages on the same
// horizon as the artifacts. Fifty successive edits of a primitive symbol —
// every state new — leave a bounded number of analyses behind, where each
// used to stay for the life of the session; an edit undone within the
// horizon is still answered by the entry it left.
func TestAnalysisCacheEvicted(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "infos", 3, 4)
	d := chip.Design
	c := NewCache()
	run := func() {
		t.Helper()
		if _, _, err := ExtractIncremental(d, tc, c, 1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	cold := len(c.owns)
	var prim *layout.Symbol
	for _, s := range d.SortedSymbols() {
		if s.IsPrimitive() && len(s.Elements) > 0 {
			prim = s
			break
		}
	}
	if prim == nil {
		t.Fatal("no primitive symbol to edit")
	}
	move := func(dx int64) {
		t.Helper()
		if err := layout.ApplyEdit(d, tc, layout.Edit{Op: layout.OpMoveElement, Symbol: prim.Name, Index: 0, DX: dx}); err != nil {
			t.Fatal(err)
		}
	}

	before := c.heldOwn(prim.Hashes().Own)
	if before == nil {
		t.Fatal("the primitive's analysis is not cached after a cold run")
	}
	move(250)
	run()
	move(-250)
	run()
	if got := c.heldOwn(prim.Hashes().Own); got != before {
		t.Fatal("an edit and its undo re-analysed the device instead of reusing the cached analysis")
	}

	for i := 0; i < 50; i++ {
		move(250) // drifts: every state is new
		run()
		if n := len(c.owns); n > cold+evictAge {
			t.Fatalf("edit %d: %d analyses cached, want at most %d (cold) + %d", i, n, cold, evictAge)
		}
	}
}

// TestActiveEditsWarmMatchFull runs the active-shape edit scripts (the
// ones core's TestActiveEditDifferential runs): after every applied edit a
// warm extraction — with its slab-carved terminal lists, interned names and
// per-class union-find — equals a cold one on a fresh cache item for item,
// with the same netlist and issues.
func TestActiveEditsWarmMatchFull(t *testing.T) {
	nm, cm := tech.NMOS(), tech.CMOS()
	steps := 50
	if testing.Short() {
		steps = 15
	}
	for _, tcase := range []struct {
		name string
		tc   *tech.Technology
		d    *layout.Design
	}{
		{"unique", nm, workload.NewChipUnique(nm, "act", 3, 4).Design},
		{"shared", nm, workload.NewChip(nm, "act", 3, 4).Design},
		{"cmos", cm, workload.NewCMOSChip(cm, "act", 3, 3).Design},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			d, tc := tcase.d, tcase.tc
			script := workload.NewActiveEdits(1)
			warm := NewCache()
			checkIncrementalMatch(t, "cold", d, tc, warm)
			for i := 0; i < steps; i++ {
				e := script.Next(d, tc)
				if layout.ApplyEdit(d, tc, e) != nil {
					continue
				}
				checkIncrementalMatch(t, fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol), d, tc, warm)
			}
		})
	}
}

// TestResolveItemMatchesFlatten: on designs whose items sit two and three
// spans deep under all eight orientations, and under translation families
// at two levels (views of views, under R90 and MX), ResolveItem over every
// root index yields exactly the interconnect elements layout.Flatten
// instantiates — the same (symbol, element, instance path, bounds)
// multiset — cold, and again through the warm cache after an edit of the
// cell.
func TestResolveItemMatchesFlatten(t *testing.T) {
	tc := tech.NMOS()
	for _, tcase := range []struct {
		name  string
		d     *layout.Design
		cell  string
		elems int // interconnect elements of the flattened design
	}{
		{"oriented blocks", workload.NewOrientedBlocks(tc), "ocell", 2*8*3 + 1},
		{"translated families", workload.NewTranslatedFamilies(tc), "fcell", 2*3*3 + 1},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			d := tcase.d
			c := NewCache()
			type key struct {
				elem   int
				path   string
				bounds geom.Rect
			}
			check := func(label string) {
				t.Helper()
				inc, _, err := ExtractIncremental(d, tc, c, 1)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := make(map[key]int)
				for _, it := range resolvedItems(inc) {
					if it.Elem >= 0 {
						got[key{it.Elem, it.Path, it.Bounds}]++
					}
				}
				flat, err := d.Flatten()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := make(map[key]int)
				for _, fe := range flat {
					if _, err := fe.Region(); err == nil && !fe.Symbol.IsPrimitive() {
						want[key{fe.Elem.Index, fe.Path, fe.Bounds()}]++
					}
				}
				if len(want) != tcase.elems {
					t.Fatalf("%s: the design flattens to %d interconnect elements, want %d", label, len(want), tcase.elems)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resolved interconnect items differ from the flattened elements:\n got: %v\nwant: %v", label, got, want)
				}
			}
			check("cold")
			if err := layout.ApplyEdit(d, tc, layout.Edit{Op: layout.OpMoveElement, Symbol: tcase.cell, Index: 2, DX: 250, DY: -250}); err != nil {
				t.Fatal(err)
			}
			check("warm, after a cell edit")
		})
	}
}

// familyCell builds a design whose cell holds a contact device and the
// given number of metal boxes, placed once by the top.
func familyCell(tc *tech.Technology, boxes int) (*layout.Design, *layout.Symbol) {
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("family")
	cell := d.MustSymbol("cell")
	cell.AddCall(device.NewDiffContact(d, tc, "contact"), geom.Identity, "ct")
	for i := 0; i < boxes; i++ {
		x := int64(i) * 1500
		cell.AddBox(metalL, geom.R(x, 1000, x+750, 1750), "")
	}
	top := d.MustSymbol("top")
	top.AddCall(cell, geom.Identity, "c0")
	d.Top = top
	return d, cell
}

// viewHoldsNoColumns reports whether every column of sd but its path
// table is nil, as a derived member's must be.
func viewHoldsNoColumns(sd *spanData) bool {
	v := reflect.ValueOf(sd).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && v.Type().Field(i).Name != "paths" && !f.IsNil() {
			return false
		}
	}
	return true
}

// TestDerivedSpanAllocs: a family hit is a view — an offset, a call name
// and the representative's distinct paths under that name — so deriving
// one allocates a small constant number of objects, the same for a child
// of eight boxes as for one of two hundred and fifty-six, and the view
// holds none of the representative's columns.
func TestDerivedSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tc := tech.NMOS()
	measure := func(boxes int) float64 {
		_, cell := familyCell(tc, boxes)
		c := NewCache()
		art := c.build(cell, tc)
		rep := c.span(art, geom.NewTransform(geom.R90, geom.Pt(0, 0)), "c0", tc)
		const runs = 100
		names := make([]string, runs+1)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i+1)
		}
		k := 0
		var last *spanData
		allocs := testing.AllocsPerRun(runs, func() {
			last = c.span(art, geom.NewTransform(geom.R90, geom.Pt(0, int64(k+1)*2000)), names[k], tc)
			k++
		})
		if last.rep != rep || !viewHoldsNoColumns(last) {
			t.Fatalf("%d boxes: a derived span holds columns of its own (rep %p, want %p)", boxes, last.rep, rep)
		}
		if hits, _ := c.ContextStats(); hits != runs+1 {
			t.Fatalf("%d boxes: %d family hits, want %d", boxes, hits, runs+1)
		}
		return allocs
	}
	small, large := measure(8), measure(256)
	const maxAllocs = 4 // measured 3: the view, its path table, one re-prefixed path
	if small > maxAllocs || large != small {
		t.Fatalf("deriving a span allocates %.1f objects for an 8-box child and %.1f for a 256-box one, want the same and <= %d",
			small, large, maxAllocs)
	}
}

// payloadField names the first field of typ that holds (directly or in a
// slice, array or map) a copy of child payload — an item, footprint,
// device, keepout or issue — or returns "". Pointers are references, not
// copies, and are not followed. Regions are not payload here: a
// reoriented family keeps its items' regions transformed, and
// TestRepresentativeAllocs checks that an upright one keeps none.
func payloadField(typ reflect.Type) string {
	payload := map[reflect.Type]bool{
		reflect.TypeOf(ConnItem{}): true, reflect.TypeOf(LocalFoot{}): true,
		reflect.TypeOf(DeviceUse{}): true, reflect.TypeOf(Keepout{}): true,
		reflect.TypeOf(Issue{}): true,
	}
	var holds func(t reflect.Type) bool
	holds = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Slice, reflect.Array:
			return holds(t.Elem())
		case reflect.Map:
			return holds(t.Key()) || holds(t.Elem())
		}
		return payload[t]
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holds(f.Type) {
			return f.Name
		}
	}
	return ""
}

// TestRepresentativeAllocs: a family's first member is an index over its
// child — bounds, layer, item→footprint, element-count and name columns in
// three slabs, plus, under a reoriented transform, the items' transformed
// regions in one store — so building it allocates the same few objects for
// a child of eight boxes as for one of two hundred and fifty-six, upright
// or rotated. It holds no copy of the child's items, footprints, devices,
// keepouts or issues, and an upright one holds no region at all.
func TestRepresentativeAllocs(t *testing.T) {
	if f := payloadField(reflect.TypeOf(spanData{})); f != "" {
		t.Fatalf("spanData.%s holds a copy of child payload", f)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tc := tech.NMOS()
	measure := func(boxes int, o geom.Orient) float64 {
		_, cell := familyCell(tc, boxes)
		c := NewCache()
		art := c.build(cell, tc)
		tr := geom.NewTransform(o, geom.Pt(3000, -7000))
		var rep *spanData
		allocs := testing.AllocsPerRun(50, func() { rep = buildSpan(art, tr, "c0", tc) })
		if len(rep.itemBoxes) != art.NumItems() || len(rep.footItem) != art.NumFoots() || rep.rep != rep {
			t.Fatalf("%d boxes, %v: representative columns sized %d/%d, want %d/%d",
				boxes, o, len(rep.itemBoxes), len(rep.footItem), art.NumItems(), art.NumFoots())
		}
		if wantRegs := map[bool]int{true: 0, false: art.NumItems()}[o == geom.R0]; len(rep.regs) != wantRegs || rep.skels != nil {
			t.Fatalf("%d boxes, %v: representative holds %d regions and %d skeletons, want %d and none",
				boxes, o, len(rep.regs), len(rep.skels), wantRegs)
		}
		return allocs
	}
	// Measured 12 upright: the span, its three slabs, the per-layer list
	// headers, the path map and table, and the two joined paths. Rotated
	// adds the region column and the store's two slabs.
	for _, c := range []struct {
		o         geom.Orient
		maxAllocs float64
	}{{geom.R0, 16}, {geom.R90, 19}} {
		small, large := measure(8, c.o), measure(256, c.o)
		if small != large || small > c.maxAllocs {
			t.Fatalf("building a representative under %v allocates %.1f objects for an 8-box child and %.1f for a 256-box one, want the same and <= %v",
				c.o, small, large, c.maxAllocs)
		}
	}
}

// TestParallelDeterminismExtraction: the full re-derive's chip-sized
// phases on the pool. A 32×32 unique-row chip with the oriented blocks
// placed under all eight orientations is extracted through three caches,
// with 1, 2 and 7 workers, after every step of an active-edit script. The
// pooled extractions split every phase — populate's per-call copies, the
// terminal remap, and the net assembly's footprint, terminal and instance
// passes — and equal the serial one exactly: items, nets, devices, issues, illegal pairs in
// order, and the instance table.
func TestParallelDeterminismExtraction(t *testing.T) {
	tc := tech.NMOS()
	steps := 8
	if testing.Short() {
		steps = 3
	}
	d := workload.NewChipUnique(tc, "pardet", 32, 32).Design
	blocks := workload.AddOrientedBlocks(d, tc)
	caches := []*Cache{NewCache(), NewCache(), NewCache()}
	workers := []int{1, 2, 7}
	extract := func(label string) {
		t.Helper()
		var base *IncExtraction
		var baseIssues []Issue
		for k, c := range caches {
			before := fanned.Load()
			inc, issues, err := ExtractIncremental(d, tc, c, workers[k])
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", label, workers[k], err)
			}
			if got := fanned.Load() - before; workers[k] > 1 && got < 5 {
				t.Fatalf("%s: workers=%d: %d phases split, want all 5", label, workers[k], got)
			}
			if k == 0 {
				base, baseIssues = inc, issues
				continue
			}
			l := fmt.Sprintf("%s: workers=%d", label, workers[k])
			diffExtractions(t, l, inc, base)
			if !reflect.DeepEqual(issues, baseIssues) {
				t.Fatalf("%s: issues differ", l)
			}
			if !reflect.DeepEqual(inc.IllegalPairs, base.IllegalPairs) {
				t.Fatalf("%s: illegal pairs differ in order", l)
			}
			if !reflect.DeepEqual(inc.Instances, base.Instances) {
				t.Fatalf("%s: instance tables differ", l)
			}
		}
	}
	extract("cold")
	for o := geom.R0; o <= geom.MX270; o++ {
		e := layout.Edit{Op: layout.OpAddCall, Symbol: d.Top.Name, Target: blocks.Name, Orient: o.String(),
			DX: -60000 - 40000*int64(o), DY: -60000, Name: fmt.Sprintf("ob%d", o)}
		if err := layout.ApplyEdit(d, tc, e); err != nil {
			t.Fatal(err)
		}
	}
	extract("oriented blocks placed")
	script := workload.NewActiveEdits(3)
	for i := 0; i < steps; i++ {
		e := script.Next(d, tc)
		if layout.ApplyEdit(d, tc, e) != nil {
			continue
		}
		extract(fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol))
	}
}
