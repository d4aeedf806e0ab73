package netlist

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

func mustExtract(t *testing.T, d *layout.Design, tc *tech.Technology) (*Netlist, []Issue) {
	t.Helper()
	nl, issues, err := Extract(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	return nl, issues
}

func hasIssue(issues []Issue, rule string) bool {
	for _, i := range issues {
		if i.Rule == rule {
			return true
		}
	}
	return false
}

func TestWireChainConnectivity(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("chain")
	top := d.MustSymbol("top")
	// Three overlapping diffusion wires: one net. A fourth, separate wire:
	// its own net.
	top.AddWire(diff, 500, "sig", geom.Pt(0, 0), geom.Pt(2000, 0))
	top.AddWire(diff, 500, "", geom.Pt(1500, 0), geom.Pt(3500, 0))
	top.AddWire(diff, 500, "", geom.Pt(3000, 0), geom.Pt(5000, 0))
	top.AddWire(diff, 500, "other", geom.Pt(0, 5000), geom.Pt(2000, 5000))
	d.Top = top

	nl, issues := mustExtract(t, d, tc)
	if len(issues) != 0 {
		t.Fatalf("issues: %v", issues)
	}
	if nl.NumNets() != 2 {
		t.Fatalf("nets = %d, want 2", nl.NumNets())
	}
	sig, ok := nl.NetByName("sig")
	if !ok {
		t.Fatal("net sig missing")
	}
	if nl.Nets[sig].Elements != 3 {
		t.Fatalf("sig elements = %d, want 3", nl.Nets[sig].Elements)
	}
	if _, ok := nl.NetByName("other"); !ok {
		t.Fatal("net other missing")
	}
}

func TestAbuttingWiresDoNotConnect(t *testing.T) {
	// The paper's self-sufficiency consequence: abutting wires are not
	// skeletally connected and therefore extract as separate nets.
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("abut")
	top := d.MustSymbol("top")
	top.AddBox(diff, geom.R(0, 0, 2000, 500), "a")
	top.AddBox(diff, geom.R(2000, 0, 4000, 500), "b")
	d.Top = top
	nl, _ := mustExtract(t, d, tc)
	if nl.NumNets() != 2 {
		t.Fatalf("nets = %d, want 2 (abutment must not connect)", nl.NumNets())
	}
}

func TestTransistorTerminalNets(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	d := layout.NewDesign("tr")
	tran := device.NewEnhTransistor(d, tc, "m", 500, 500)
	top := d.MustSymbol("top")
	top.AddCall(tran, geom.Identity, "m1")
	top.AddWire(diff, 500, "src", geom.Pt(-2000, 0), geom.Pt(-300, 0))
	top.AddWire(diff, 500, "drn", geom.Pt(300, 0), geom.Pt(2000, 0))
	top.AddWire(poly, 500, "gat", geom.Pt(0, 250), geom.Pt(0, 2500))
	d.Top = top

	nl, issues := mustExtract(t, d, tc)
	if hasIssue(issues, "NET.MERGED") || hasIssue(issues, "NET.OPEN") {
		t.Fatalf("unexpected issues: %v", issues)
	}
	if len(nl.Devices) != 1 {
		t.Fatalf("devices = %d", len(nl.Devices))
	}
	dev := nl.Devices[0]
	if dev.Path != "m1" || dev.Info.Type != tech.DevNMOSEnh {
		t.Fatalf("device = %+v", dev)
	}
	for term, wantNet := range map[string]string{"g": "gat", "s": "src", "d": "drn"} {
		nid, ok := dev.TerminalNet(term)
		if !ok {
			t.Fatalf("terminal %q missing (%v)", term, dev.TerminalNets)
		}
		if got := nl.Nets[nid].Name; got != wantNet {
			t.Errorf("terminal %q on net %q, want %q", term, got, wantNet)
		}
	}
	// Source and drain must be distinct nets (no transistor short).
	srcNet, _ := dev.TerminalNet("s")
	drnNet, _ := dev.TerminalNet("d")
	if srcNet == drnNet {
		t.Fatal("source and drain merged through the transistor")
	}
}

func TestContactFusesLayers(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("ct")
	ct := device.NewDiffContact(d, tc, "c")
	top := d.MustSymbol("top")
	top.AddCall(ct, geom.Identity, "c1")
	// Metal wire covering the contact pad entirely; diffusion wire under.
	top.AddWire(metal, 750, "mnet", geom.Pt(-3000, 0), geom.Pt(500, 0))
	top.AddWire(diff, 500, "dnet", geom.Pt(0, 0), geom.Pt(3000, 0))
	d.Top = top

	nl, issues := mustExtract(t, d, tc)
	// The contact fuses metal and diffusion: mnet and dnet become one net,
	// which the consistency check reports as a merge of declared names.
	if !hasIssue(issues, "NET.MERGED") {
		t.Fatalf("expected NET.MERGED for fused mnet/dnet, got %v", issues)
	}
	mid, ok1 := nl.NetByName("mnet")
	did, ok2 := nl.NetByName("dnet")
	if !ok1 || !ok2 || mid != did {
		t.Fatalf("contact did not fuse nets: mnet=%v(%v) dnet=%v(%v)", mid, ok1, did, ok2)
	}
}

func TestDotNotationAndRails(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("dots")
	cell := d.MustSymbol("cell")
	cell.AddWire(diff, 500, "q", geom.Pt(0, 0), geom.Pt(2000, 0))
	cell.AddWire(metal, 750, "VDD", geom.Pt(0, 2000), geom.Pt(4000, 2000))
	top := d.MustSymbol("top")
	top.AddCall(cell, geom.Identity, "a")
	top.AddCall(cell, geom.Translate(geom.Pt(3500, 0)), "b")
	d.Top = top

	nl, issues := mustExtract(t, d, tc)
	// Local nets are instance-qualified.
	if _, ok := nl.NetByName("a.q"); !ok {
		t.Fatalf("a.q missing; nets: %v", netNames(nl))
	}
	if _, ok := nl.NetByName("b.q"); !ok {
		t.Fatal("b.q missing")
	}
	// The VDD rails overlap (3500 < 4000) and carry a global name: one net,
	// no issues.
	vdd, ok := nl.NetByName("VDD")
	if !ok {
		t.Fatal("VDD missing")
	}
	if nl.Nets[vdd].Elements != 2 {
		t.Fatalf("VDD elements = %d, want 2", nl.Nets[vdd].Elements)
	}
	if hasIssue(issues, "NET.OPEN") || hasIssue(issues, "NET.MERGED") {
		t.Fatalf("unexpected issues: %v", issues)
	}
}

func TestOpenRailReported(t *testing.T) {
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("open")
	top := d.MustSymbol("top")
	top.AddWire(metal, 750, "VDD", geom.Pt(0, 0), geom.Pt(2000, 0))
	top.AddWire(metal, 750, "VDD", geom.Pt(10000, 0), geom.Pt(12000, 0))
	d.Top = top
	_, issues := mustExtract(t, d, tc)
	if !hasIssue(issues, "NET.OPEN") {
		t.Fatalf("split VDD not reported: %v", issues)
	}
}

func TestConstructionRulePGShort(t *testing.T) {
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("pg")
	top := d.MustSymbol("top")
	top.AddWire(metal, 750, "VDD", geom.Pt(0, 0), geom.Pt(3000, 0))
	top.AddWire(metal, 750, "GND", geom.Pt(2000, 0), geom.Pt(6000, 0))
	d.Top = top
	nl, _ := mustExtract(t, d, tc)
	issues := ConstructionRules(nl, d.Top.Name, tc)
	if !hasIssue(issues, "NET.PGSHORT") {
		t.Fatalf("power-ground short not reported: %v", issues)
	}
}

func TestConstructionRuleResistorBetweenRailsIsLegal(t *testing.T) {
	// A resistor between VDD and GND must NOT be a short: its two ends are
	// distinct nodes (Figure 5b modelling).
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("res")
	res := device.NewDiffResistor(d, tc, "r", 3000) // body y in [0,500]
	top := d.MustSymbol("top")
	top.AddCall(res, geom.Identity, "r1")
	top.AddWire(diff, 500, "VDD", geom.Pt(-2000, 250), geom.Pt(400, 250))
	top.AddWire(diff, 500, "GND", geom.Pt(2600, 250), geom.Pt(5000, 250))
	d.Top = top
	nl, _ := mustExtract(t, d, tc)
	issues := ConstructionRules(nl, d.Top.Name, tc)
	if hasIssue(issues, "NET.PGSHORT") {
		t.Fatalf("resistor between rails wrongly reported as short: %v", issues)
	}
	vdd, _ := nl.NetByName("VDD")
	gnd, _ := nl.NetByName("GND")
	if vdd == gnd {
		t.Fatal("rails merged through resistor body")
	}
}

func TestConstructionRuleFanout(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("fan")
	top := d.MustSymbol("top")
	top.AddWire(diff, 500, "floating", geom.Pt(0, 0), geom.Pt(2000, 0))
	d.Top = top
	nl, _ := mustExtract(t, d, tc)
	issues := ConstructionRules(nl, d.Top.Name, tc)
	if !hasIssue(issues, "NET.FANOUT") {
		t.Fatalf("floating net not reported: %v", issues)
	}
}

func TestConstructionRuleBusRail(t *testing.T) {
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("bus")
	top := d.MustSymbol("top")
	top.AddWire(metal, 750, "bus0", geom.Pt(0, 0), geom.Pt(3000, 0))
	top.AddWire(metal, 750, "GND", geom.Pt(2000, 0), geom.Pt(6000, 0))
	d.Top = top
	nl, _ := mustExtract(t, d, tc)
	issues := ConstructionRules(nl, d.Top.Name, tc)
	if !hasIssue(issues, "NET.BUSRAIL") {
		t.Fatalf("bus-to-rail not reported: %v", issues)
	}
}

func TestConstructionRuleDepletionToGround(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("dep")
	dep := device.NewDepTransistor(d, tc, "dep", 500, 500)
	top := d.MustSymbol("top")
	top.AddCall(dep, geom.Identity, "d1")
	top.AddWire(diff, 500, "GND", geom.Pt(-2500, 0), geom.Pt(-300, 0))
	top.AddWire(diff, 500, "out", geom.Pt(300, 0), geom.Pt(2500, 0))
	d.Top = top
	nl, _ := mustExtract(t, d, tc)
	issues := ConstructionRules(nl, d.Top.Name, tc)
	if !hasIssue(issues, "NET.DEPGND") {
		t.Fatalf("depletion-to-ground not reported: %v", issues)
	}
	// A device placed at the top itself has no instance path: the name
	// the design gives its top names it, whatever symbol built it.
	atTop := *nl
	atTop.Devices = slices.Clone(nl.Devices)
	atTop.Devices[0].Path = ""
	named := false
	for _, is := range ConstructionRules(&atTop, "renamed-top", tc) {
		named = named || is.Rule == "NET.DEPGND" && strings.Contains(is.Detail, "device renamed-top terminal")
	}
	if !named {
		t.Fatal("a device at the top is not named by the top")
	}
}

func TestCompareReference(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	d := layout.NewDesign("cmp")
	tran := device.NewEnhTransistor(d, tc, "m", 500, 500)
	top := d.MustSymbol("top")
	top.AddCall(tran, geom.Identity, "m1")
	top.AddWire(diff, 500, "src", geom.Pt(-2000, 0), geom.Pt(-300, 0))
	top.AddWire(diff, 500, "drn", geom.Pt(300, 0), geom.Pt(2000, 0))
	top.AddWire(poly, 500, "gat", geom.Pt(0, 250), geom.Pt(0, 2500))
	d.Top = top
	nl, _ := mustExtract(t, d, tc)

	good := Reference{
		"src": {"nmos-enh:s"},
		"drn": {"nmos-enh:d"},
		"gat": {"nmos-enh:g"},
	}
	if issues := Compare(nl, good); len(issues) != 0 {
		t.Fatalf("good reference mismatched: %v", issues)
	}
	bad := Reference{
		"src": {"nmos-enh:s", "nmos-enh:g"}, // wrong attachment
		"zzz": {"nmos-enh:d"},               // missing net
	}
	issues := Compare(nl, bad)
	if !hasIssue(issues, "NET.MISMATCH") || !hasIssue(issues, "NET.MISSING") {
		t.Fatalf("bad reference not caught: %v", issues)
	}
}

func netNames(nl *Netlist) []string {
	out := make([]string, 0, len(nl.Nets))
	for i := range nl.Nets {
		out = append(out, nl.Nets[i].Name)
	}
	return out
}

// TestNetByNameTable pins NetByName's answers on every kind of name: a
// declared name always wins over an anonymous "n<k>" it collides with,
// whichever of the two nets comes first; a split name answers its first
// net; only the canonical spelling of an anonymous name resolves.
func TestNetByNameTable(t *testing.T) {
	tc := tech.NMOS()
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("names")
	top := d.MustSymbol("top")
	// Twelve isolated boxes: element k is net k (first-footprint order).
	declared := map[int]string{1: "a", 2: "n7", 5: "q", 8: "q", 9: "n3"}
	for k := 0; k < 12; k++ {
		x := int64(k) * 10000
		top.AddBox(metalL, geom.R(x, 0, x+2000, 2000), declared[k])
	}
	d.Top = top
	nl, issues := mustExtract(t, d, tc)
	if nl.NumNets() != 12 {
		t.Fatalf("nets = %d, want 12", nl.NumNets())
	}
	if !hasIssue(issues, "NET.OPEN") {
		t.Fatalf("split name q not reported: %v", issues)
	}
	for _, c := range []struct {
		name string
		id   NetID
		ok   bool
	}{
		{"a", 1, true},                      // declared
		{"n0", 0, true},                     // anonymous, by index
		{"n11", 11, true},                   // the last anonymous net
		{"n3", 9, true},                     // declared on net 9 beats the live anonymous net 3
		{"n7", 2, true},                     // declared on net 2 beats the later anonymous net 7
		{"q", 5, true},                      // split across nets 5 and 8: the first
		{"n1", 0, false},                    // net 1 is named "a", not "n1"
		{"n9", 0, false},                    // net 9 is named "n3"
		{"n12", 0, false},                   // past the end
		{"n03", 0, false},                   // not the canonical spelling
		{"n+4", 0, false},                   // nor this
		{"n-0", 0, false},                   // nor this
		{"n", 0, false},                     // no digits
		{"n4x", 0, false},                   // trailing junk
		{"", 0, false},                      // empty
		{"missing", 0, false},               // never declared
		{"n99999999999999999999", 0, false}, // overflows
	} {
		id, ok := nl.NetByName(c.name)
		if ok != c.ok || (ok && id != c.id) {
			t.Errorf("NetByName(%q) = %d, %v; want %d, %v", c.name, id, ok, c.id, c.ok)
		}
	}
	for i, want := range []string{"n0", "a", "n7", "n3", "n4", "q", "n6", "n7", "q", "n3", "n10", "n11"} {
		if nl.Nets[i].Name != want {
			t.Errorf("net %d named %q, want %q", i, nl.Nets[i].Name, want)
		}
	}
}
