package tech

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/deck"
)

// wideDeck is a 64-layer technology — deck.MaxLayers, so every bit of an
// interacts row — with rules at the high layer ids: spacing on 2×63 and
// 62×63, poly (1) over diffusion (60), and a width, area and cross rule
// on the top layers.
func wideDeck() string {
	var sb strings.Builder
	sb.WriteString("tech wide\n")
	roles := map[int]string{1: RolePoly, 60: RoleDiffusion, 62: RoleContact, 63: RoleMetal}
	for i := 0; i < deck.MaxLayers; i++ {
		fmt.Fprintf(&sb, "layer l%d cif=X%d", i, i)
		if r := roles[i]; r != "" {
			fmt.Fprintf(&sb, " role=%s", r)
		}
		sb.WriteString("\n")
	}
	sb.WriteString(`space l2 l63 diff=100 note="far pair"
space l62 l63 same=50 exempt-related note="top pair"
space l0 l5 note="documented skip"
width l63 30 note="top width"
area l62 900 note="top area"
enclose l63 l62 10 note="top enclosure"
extend l1 l60 20 note="gate extension"
`)
	return sb.String()
}

// checkRuleTable reads a technology's rule table back against the deck
// rows it was built from: the deck is the reference.
func checkRuleTable(t testing.TB, d *deck.Deck, tc *Technology) {
	t.Helper()
	n := len(d.Layers)
	if tc.Name != d.Name || tc.Lambda != d.Lambda || tc.NumLayers() != n {
		t.Fatalf("%q: name/lambda/layers %q/%d/%d, deck has %q/%d/%d",
			d.Name, tc.Name, tc.Lambda, tc.NumLayers(), d.Name, d.Lambda, n)
	}
	id := func(name string) LayerID {
		l, ok := tc.LayerByName(name)
		if !ok {
			t.Fatalf("%q: layer %q missing", d.Name, name)
		}
		return l
	}
	poly, isDiff := NoLayer, make([]bool, n)
	for i, l := range d.Layers {
		if got := tc.Layer(LayerID(i)); got.Name != l.Name || got.CIF != l.CIF || got.Role != l.Role ||
			got.MinWidth != l.Width || got.MinSpace != l.Space {
			t.Fatalf("%q: layer %d = %+v, deck row %+v", d.Name, i, got, l)
		}
		switch l.Role {
		case RolePoly:
			poly = LayerID(i)
		case RoleDiffusion:
			isDiff[i] = true
		}
	}

	// Every space row reads back in both orders, unset cells are zero, and
	// a pair interacts exactly when its cell checks something or it is
	// poly over diffusion; cross rules leave Interacts alone.
	cells := make([]SpacingRule, n*n)
	var maxSpacing int64
	for _, s := range d.Spaces {
		a, b := id(s.A), id(s.B)
		r := SpacingRule{DiffNet: s.DiffNet, SameNet: s.SameNet, ExemptRelated: s.ExemptRelated, Note: s.Note}
		cells[int(a)*n+int(b)], cells[int(b)*n+int(a)] = r, r
		maxSpacing = max(maxSpacing, s.DiffNet, s.SameNet)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			la, lb := LayerID(a), LayerID(b)
			want := cells[a*n+b]
			if got := *tc.Rule(la, lb); got != want {
				t.Fatalf("%q: Rule(%d,%d) = %+v, deck has %+v", d.Name, a, b, got, want)
			}
			polyDiff := poly != NoLayer && (la == poly && isDiff[b] || lb == poly && isDiff[a])
			if got := tc.Interacts(la, lb); got != (want.DiffNet > 0 || want.SameNet > 0 || polyDiff) {
				t.Fatalf("%q: Interacts(%d,%d) = %v for %+v (poly×diffusion %v)", d.Name, a, b, got, want, polyDiff)
			}
		}
	}
	if tc.MaxSpacing() != maxSpacing {
		t.Fatalf("%q: MaxSpacing = %d, rows give %d", d.Name, tc.MaxSpacing(), maxSpacing)
	}

	// Width, area and cross rows read back, the cross list in (kind, a, b)
	// order.
	widths, areas := make([]int64, n), make([]int64, n)
	hasRules := false
	for _, w := range d.Widths {
		if w.Min > 0 {
			widths[id(w.Layer)], hasRules = w.Min, true
		}
	}
	for _, a := range d.Areas {
		if a.MinArea > 0 {
			areas[id(a.Layer)], hasRules = a.MinArea, true
		}
	}
	for l := 0; l < n; l++ {
		if tc.WidthMin(LayerID(l)) != widths[l] || tc.AreaMin(LayerID(l)) != areas[l] {
			t.Fatalf("%q: layer %d width/area %d/%d, deck has %d/%d",
				d.Name, l, tc.WidthMin(LayerID(l)), tc.AreaMin(LayerID(l)), widths[l], areas[l])
		}
	}
	var crosses []Cross
	for _, cr := range d.Crosses {
		if cr.Margin > 0 {
			crosses = append(crosses, Cross{Kind: crossKindOf(cr.Kind), A: id(cr.A), B: id(cr.B), Margin: cr.Margin})
			hasRules = true
		}
	}
	key := func(c Cross) int { return (int(c.Kind)*n+int(c.A))*n + int(c.B) }
	sort.Slice(crosses, func(i, j int) bool { return key(crosses[i]) < key(crosses[j]) })
	if got := tc.CrossRules(); !reflect.DeepEqual(got, crosses) {
		t.Fatalf("%q: cross list\n%+v\ndeck rows in (kind, a, b) order\n%+v", d.Name, got, crosses)
	}
	if tc.HasLayerRules() != hasRules {
		t.Fatalf("%q: HasLayerRules = %v, deck rows say %v", d.Name, tc.HasLayerRules(), hasRules)
	}
}

// loadChecked parses src, builds its technology and reads the rule table
// back against the deck rows.
func loadChecked(t *testing.T, src string) *Technology {
	t.Helper()
	d, err := deck.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tc, _, err := FromDeck(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRuleTable(t, d, tc)
	return tc
}

// TestCompiledMatchesMaps builds each shipped deck and reads its rule table
// back against the deck's own rows: the deck is the reference.
func TestCompiledMatchesMaps(t *testing.T) {
	for _, src := range []string{nmosDeck, bipolarDeck, cmosDeck} {
		loadChecked(t, src)
	}
}

// TestCompileManyLayers builds a 64-layer deck: its rules reach the top
// bits of an interacts row.
func TestCompileManyLayers(t *testing.T) {
	tc := loadChecked(t, wideDeck())
	for _, c := range []struct {
		a, b LayerID
		ok   bool
	}{{2, 63, true}, {63, 2, true}, {62, 63, true}, {1, 60, true}, {60, 1, true}, {2, 62, false}, {0, 5, false}} {
		if got := tc.Interacts(c.a, c.b); got != c.ok {
			t.Fatalf("wide: Interacts(%d,%d) = %v, want %v", c.a, c.b, got, c.ok)
		}
	}
	if len(tc.CrossRules()) != 2 || tc.CrossRules()[0].Kind != CrossEnclose {
		t.Fatalf("wide: cross list %+v", tc.CrossRules())
	}
}

// TestToDeckRoundTrip writes each shipped deck and the 64-layer deck back
// out with deck.Write and loads the text again: the rule table still reads
// back against the original rows.
func TestToDeckRoundTrip(t *testing.T) {
	for _, src := range []string{nmosDeck, bipolarDeck, cmosDeck, wideDeck()} {
		d, err := deck.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := LoadDeck(deck.Write(d), nil)
		if err != nil {
			t.Fatalf("%q: written deck refused: %v", d.Name, err)
		}
		checkRuleTable(t, d, tc)
	}
}

// TestLoadDeckRefuses: a deck with an error-severity problem builds no
// technology, and the problems come back beside the error.
func TestLoadDeckRefuses(t *testing.T) {
	d, err := deck.Parse("tech bad\nlayer a cif=XA\nspace a ghost diff=3\n")
	if err != nil {
		t.Fatal(err)
	}
	tc, probs, err := FromDeck(d, nil)
	if err == nil || tc != nil || len(deck.Errors(probs)) == 0 {
		t.Fatalf("FromDeck = %v, %v, %v; want a refusal", tc, probs, err)
	}
	d, _ = deck.Parse("tech t\nlayer a cif=XA role=metal\ndevice d class=mystery\n")
	if _, _, err := FromDeck(d, []string{"contact"}); err == nil {
		t.Fatal("unknown device class accepted")
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"bipolar", "cmos", "nmos"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	tc, ok := ByName("cmos")
	if !ok {
		t.Fatal("cmos not registered")
	}
	if tc.Name != "cmos-1um" || tc.Lambda != 100 {
		t.Fatalf("cmos tech = %q λ=%d", tc.Name, tc.Lambda)
	}
	if tc != CMOS() {
		t.Fatal("the shipped technology is not shared")
	}
	if _, ok := ByName("sos"); ok {
		t.Fatal("unknown technology resolved")
	}
}

func TestCMOSDeckOnly(t *testing.T) {
	tc := CMOS()
	if tc.NumLayers() != 6 {
		t.Fatalf("layers = %d", tc.NumLayers())
	}
	nd, _ := tc.LayerByName(CMOSNDiff)
	pd, _ := tc.LayerByName(CMOSPDiff)
	po, _ := tc.LayerByName(CMOSPoly)
	if !tc.IsDiffusion(nd) || !tc.IsDiffusion(pd) {
		t.Fatal("both diffusion polarities must carry the diffusion role")
	}
	if poly, ok := tc.Poly(); !ok || poly != po {
		t.Fatal("poly role not resolved")
	}
	spec, ok := tc.Device(DevCMOSPMOS)
	if !ok || spec.Layers["diffusion"] != CMOSPDiff {
		t.Fatalf("pmos spec = %+v", spec)
	}
	if id, ok := tc.LayerFor(spec, RoleDiffusion); !ok || id != pd {
		t.Fatalf("LayerFor(pmos, diffusion) = %d, %v", id, ok)
	}
	// The unbound nmos side resolves through the explicit use line too.
	nspec, _ := tc.Device(DevCMOSNMOS)
	if id, ok := tc.LayerFor(nspec, RoleDiffusion); !ok || id != nd {
		t.Fatalf("LayerFor(nmos, diffusion) = %d, %v", id, ok)
	}
}
