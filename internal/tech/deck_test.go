package tech

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/deck"
)

// techEqual compares the semantic content of two technologies, reporting
// the first difference found.
func techEqual(t *testing.T, label string, a, b *Technology) {
	t.Helper()
	if a.Name != b.Name || a.Lambda != b.Lambda {
		t.Fatalf("%s: name/lambda %q/%d vs %q/%d", label, a.Name, a.Lambda, b.Name, b.Lambda)
	}
	if !reflect.DeepEqual(a.layers, b.layers) {
		t.Fatalf("%s: layers\n%+v\nvs\n%+v", label, a.layers, b.layers)
	}
	if !reflect.DeepEqual(a.spacing, b.spacing) {
		for p, r := range a.spacing {
			if other, ok := b.spacing[p]; !ok || !reflect.DeepEqual(r, other) {
				t.Fatalf("%s: spacing cell %v: %+v vs %+v (present=%v)", label, p, r, other, ok)
			}
		}
		t.Fatalf("%s: spacing maps differ in size: %d vs %d", label, len(a.spacing), len(b.spacing))
	}
	if !reflect.DeepEqual(a.widths, b.widths) {
		t.Fatalf("%s: width rules\n%+v\nvs\n%+v", label, a.widths, b.widths)
	}
	if !reflect.DeepEqual(a.areas, b.areas) {
		t.Fatalf("%s: area rules\n%+v\nvs\n%+v", label, a.areas, b.areas)
	}
	if !reflect.DeepEqual(a.crosses, b.crosses) {
		t.Fatalf("%s: cross rules\n%+v\nvs\n%+v", label, a.crosses, b.crosses)
	}
	if !reflect.DeepEqual(a.devices, b.devices) {
		for n, s := range a.devices {
			if other, ok := b.devices[n]; !ok || !reflect.DeepEqual(s, other) {
				t.Fatalf("%s: device %q: %+v vs %+v (present=%v)", label, n, s, other, ok)
			}
		}
		t.Fatalf("%s: device tables differ in size: %d vs %d", label, len(a.devices), len(b.devices))
	}
	if !reflect.DeepEqual(a.PowerNets, b.PowerNets) || !reflect.DeepEqual(a.GroundNets, b.GroundNets) {
		t.Fatalf("%s: rails %v/%v vs %v/%v", label, a.PowerNets, a.GroundNets, b.PowerNets, b.GroundNets)
	}
}

// TestToDeckRoundTrip: code → deck → code reproduces the technology, and
// writing the generated deck re-parses to the same technology.
func TestToDeckRoundTrip(t *testing.T) {
	for _, fn := range []func() *Technology{NMOS, Bipolar, CMOS} {
		orig := fn()
		d := ToDeck(orig)
		back, err := FromDeck(d)
		if err != nil {
			t.Fatalf("%s: FromDeck(ToDeck): %v", orig.Name, err)
		}
		techEqual(t, orig.Name+" FromDeck∘ToDeck", orig, back)
		reparsed, err := ParseDeck(deck.Write(d))
		if err != nil {
			t.Fatalf("%s: reparse of written deck: %v", orig.Name, err)
		}
		techEqual(t, orig.Name+" Parse∘Write", orig, reparsed)
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"bipolar", "cmos", "nmos"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	fn, ok := ByName("cmos")
	if !ok {
		t.Fatal("cmos not registered")
	}
	if tc := fn(); tc.Name != "cmos-1um" || tc.Lambda != 100 {
		t.Fatalf("cmos tech = %q λ=%d", tc.Name, tc.Lambda)
	}
	if _, ok := ByName("sos"); ok {
		t.Fatal("unknown technology resolved")
	}
}

func TestCompiledMatchesMaps(t *testing.T) {
	for _, fn := range []func() *Technology{NMOS, Bipolar, CMOS} {
		tc := fn()
		c := tc.Compile()
		if c != tc.Compile() {
			t.Fatalf("%s: Compile not cached", tc.Name)
		}
		var wantMax int64
		n := tc.NumLayers()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := LayerID(i), LayerID(j)
				fromMap := tc.spacing[Pair(a, b)]
				if got := *c.Rule(a, b); got != fromMap {
					t.Fatalf("%s: Rule(%d,%d) = %+v, map has %+v", tc.Name, i, j, got, fromMap)
				}
				if fromMap.DiffNet > wantMax {
					wantMax = fromMap.DiffNet
				}
				if fromMap.SameNet > wantMax {
					wantMax = fromMap.SameNet
				}
				// Every pair with a non-zero rule must survive the filter.
				if (fromMap.DiffNet > 0 || fromMap.SameNet > 0) && !c.Interacts(a, b) {
					t.Fatalf("%s: ruleful pair (%d,%d) filtered", tc.Name, i, j)
				}
			}
		}
		if c.MaxSpacing() != wantMax {
			t.Fatalf("%s: MaxSpacing = %d, want %d", tc.Name, c.MaxSpacing(), wantMax)
		}
		// Poly over any diffusion must survive the filter (Figure 8) and
		// mutation must invalidate the cache.
		if poly, ok := c.Poly(); ok {
			for i := 0; i < n; i++ {
				if c.IsDiffusion(LayerID(i)) && !c.Interacts(poly, LayerID(i)) {
					t.Fatalf("%s: poly-diffusion pair (%d) filtered", tc.Name, i)
				}
			}
		}
		// The new rule slots must mirror the authoring maps, and the cross
		// list must be deterministic (kind, a, b) order with the margins
		// reachable through the packed-pair index.
		for i := 0; i < n; i++ {
			wr, _ := tc.WidthRuleFor(LayerID(i))
			if c.WidthMin(LayerID(i)) != wr.Min {
				t.Fatalf("%s: WidthMin(%d) = %d, map has %d", tc.Name, i, c.WidthMin(LayerID(i)), wr.Min)
			}
			ar, _ := tc.AreaRuleFor(LayerID(i))
			if c.AreaMin(LayerID(i)) != ar.Min {
				t.Fatalf("%s: AreaMin(%d) = %d, map has %d", tc.Name, i, c.AreaMin(LayerID(i)), ar.Min)
			}
		}
		list := c.CrossRules()
		for i, cr := range list {
			if mapped, ok := tc.CrossRuleFor(cr.Kind, cr.A, cr.B); !ok || mapped.Margin != cr.Margin {
				t.Fatalf("%s: cross list entry %+v not in map (%+v, %v)", tc.Name, cr, mapped, ok)
			}
			if c.CrossMargin(cr.Kind, cr.A, cr.B) != cr.Margin {
				t.Fatalf("%s: CrossMargin(%v,%d,%d) = %d, want %d",
					tc.Name, cr.Kind, cr.A, cr.B, c.CrossMargin(cr.Kind, cr.A, cr.B), cr.Margin)
			}
			if i > 0 {
				p := list[i-1]
				if p.Kind > cr.Kind || (p.Kind == cr.Kind && (p.A > cr.A || (p.A == cr.A && p.B >= cr.B))) {
					t.Fatalf("%s: cross list not in (kind, a, b) order: %+v before %+v", tc.Name, p, cr)
				}
			}
			// Cross rules are definition-level; they must not widen the
			// pair-sweep interaction filter on their own.
		}
		for key := range tc.crosses {
			if _, ok := tc.spacing[Pair(key.a, key.b)]; !ok && c.Interacts(key.a, key.b) &&
				!(c.hasPoly && key.a == c.polyID && c.isDiff[key.b]) {
				t.Fatalf("%s: cross rule %v marked the interacts bitset", tc.Name, key)
			}
		}

		tc.SetSpacing(0, 0, SpacingRule{DiffNet: 9 * wantMax})
		if tc.MaxSpacing() != 9*wantMax {
			t.Fatalf("%s: compiled form not invalidated on mutation", tc.Name)
		}
		tc.SetWidthRule(0, LayerRule{Min: 123})
		if tc.Compile().WidthMin(0) != 123 {
			t.Fatalf("%s: compiled form not invalidated on width-rule mutation", tc.Name)
		}
	}
}

// TestCompileManyLayers: the compiled form must handle technologies wider
// than one bitset word (Go-built technologies have no deck-level layer
// cap), without panicking and with correct filtering at high layer ids.
func TestCompileManyLayers(t *testing.T) {
	tc := New("wide", 0)
	for i := 0; i < 70; i++ {
		tc.AddLayer(Layer{Name: fmt.Sprintf("l%d", i), CIF: fmt.Sprintf("X%d", i)})
	}
	tc.SetSpacing(2, 69, SpacingRule{DiffNet: 100})
	tc.SetSpacing(68, 69, SpacingRule{SameNet: 50})
	c := tc.Compile()
	if tc.MaxSpacing() != 100 {
		t.Fatalf("MaxSpacing = %d", tc.MaxSpacing())
	}
	for _, want := range []struct {
		a, b LayerID
		ok   bool
	}{{2, 69, true}, {69, 2, true}, {68, 69, true}, {2, 68, false}, {0, 69, false}} {
		if got := c.Interacts(want.a, want.b); got != want.ok {
			t.Fatalf("Interacts(%d,%d) = %v, want %v", want.a, want.b, got, want.ok)
		}
	}
	if r := c.Rule(69, 2); r.DiffNet != 100 {
		t.Fatalf("Rule(69,2) = %+v", r)
	}
}

func TestCMOSDeckOnly(t *testing.T) {
	tc := CMOS()
	if tc.NumLayers() != 6 {
		t.Fatalf("layers = %d", tc.NumLayers())
	}
	c := tc.Compile()
	nd, _ := tc.LayerByName(CMOSNDiff)
	pd, _ := tc.LayerByName(CMOSPDiff)
	po, _ := tc.LayerByName(CMOSPoly)
	if !c.IsDiffusion(nd) || !c.IsDiffusion(pd) {
		t.Fatal("both diffusion polarities must carry the diffusion role")
	}
	if poly, ok := c.Poly(); !ok || poly != po {
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
