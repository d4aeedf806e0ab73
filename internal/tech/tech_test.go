package tech

import "testing"

func TestNMOSLayers(t *testing.T) {
	tc := NMOS()
	if tc.NumLayers() != 6 {
		t.Fatalf("layers = %d", tc.NumLayers())
	}
	d, ok := tc.LayerByName(NMOSDiff)
	if !ok {
		t.Fatal("diffusion missing")
	}
	if got := tc.Layer(d); got.CIF != "ND" || got.MinWidth != 500 {
		t.Fatalf("diffusion = %+v", got)
	}
	if id, ok := tc.LayerByCIF("NM"); !ok || tc.Layer(id).Name != NMOSMetal {
		t.Fatal("CIF lookup failed")
	}
	if _, ok := tc.LayerByCIF("XX"); ok {
		t.Fatal("unknown CIF layer resolved")
	}
}

func TestSpacingMatrixSymmetry(t *testing.T) {
	tc := NMOS()
	d, _ := tc.LayerByName(NMOSDiff)
	p, _ := tc.LayerByName(NMOSPoly)
	if *tc.Rule(d, p) != *tc.Rule(p, d) {
		t.Fatal("spacing must be order-independent")
	}
	if got := tc.Rule(d, p).DiffNet; got != 250 {
		t.Fatalf("D-P diff-net = %d, want 1λ", got)
	}
	// Unset cells return the zero rule.
	m, _ := tc.LayerByName(NMOSMetal)
	if r := tc.Rule(d, m); r.DiffNet != 0 || r.SameNet != 0 {
		t.Fatalf("D-M should have no rule: %+v", r)
	}
}

func TestMaxSpacing(t *testing.T) {
	tc := NMOS()
	if got := tc.MaxSpacing(); got != 750 {
		t.Fatalf("max spacing = %d, want 3λ", got)
	}
}

func TestInteractionMatrixAudit(t *testing.T) {
	// The paper's Figure 12 point: most cells require no check.
	tc := NMOS()
	cells := tc.InteractionMatrix()
	want := 6 * 7 / 2
	if len(cells) != want {
		t.Fatalf("matrix cells = %d, want %d", len(cells), want)
	}
	checked := 0
	for _, c := range cells {
		if c.Checked {
			checked++
		}
	}
	if checked >= len(cells)/2 {
		t.Fatalf("checked cells = %d of %d; the majority should be skips", checked, len(cells))
	}
	// Same-net subcases are rarer still.
	sameNet := 0
	for _, c := range cells {
		if c.Rule.SameNet > 0 {
			sameNet++
		}
	}
	if sameNet >= checked {
		t.Fatalf("same-net cells = %d, checked = %d", sameNet, checked)
	}
}

func TestDeviceRegistry(t *testing.T) {
	tc := NMOS()
	spec, ok := tc.Device(DevNMOSEnh)
	if !ok || spec.Class != "mos-transistor" {
		t.Fatalf("enh spec = %+v %v", spec, ok)
	}
	if spec.Params["gate-extension"] != 500 {
		t.Fatalf("gate extension = %d", spec.Params["gate-extension"])
	}
	if _, ok := tc.Device("nope"); ok {
		t.Fatal("unknown device resolved")
	}
}

func TestRails(t *testing.T) {
	tc := NMOS()
	if !tc.IsPower("VDD") || !tc.IsPower("vdd") {
		t.Fatal("VDD not power")
	}
	if !tc.IsGround("GND") || !tc.IsGround("vss") {
		t.Fatal("GND not ground")
	}
	if tc.IsRail("out") {
		t.Fatal("out is not a rail")
	}
}

func TestBipolarTech(t *testing.T) {
	tc := Bipolar()
	base, ok := tc.LayerByName(BipBase)
	if !ok {
		t.Fatal("base missing")
	}
	iso, _ := tc.LayerByName(BipIso)
	r := tc.Rule(base, iso)
	if r.DiffNet != 200 || r.SameNet != 200 {
		t.Fatalf("base-iso rule = %+v", r)
	}
	if spec, ok := tc.Device(DevNPN); !ok || spec.Class != "npn-transistor" {
		t.Fatalf("npn spec = %+v %v", spec, ok)
	}
	if spec, ok := tc.Device(DevResistorBase); !ok || spec.Class != "resistor" {
		t.Fatalf("base resistor spec = %+v %v", spec, ok)
	}
}

func TestPairNormalization(t *testing.T) {
	if Pair(3, 1) != Pair(1, 3) {
		t.Fatal("Pair must normalize order")
	}
	if p := Pair(2, 2); p.A != 2 || p.B != 2 {
		t.Fatal("self pair")
	}
}
