package device

import (
	"os"
	"strings"
	"testing"

	"repro/internal/deck"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

func hasProblem(probs []Problem, rule string) bool {
	for _, p := range probs {
		if p.Rule == rule {
			return true
		}
	}
	return false
}

func TestEnhTransistorClean(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewEnhTransistor(d, tc, "m1", 500, 500)
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean transistor has problems: %v", probs)
	}
	if info.Class != "mos-transistor" || info.Type != tech.DevNMOSEnh {
		t.Fatalf("info = %+v", info)
	}
	if info.Gate.Empty() {
		t.Fatal("gate region missing")
	}
	if got := info.Gate.Bounds(); got != geom.R(-250, -250, 250, 250) {
		t.Fatalf("gate = %v", got)
	}
	if len(info.Terminals) != 3 {
		t.Fatalf("terminals = %d, want 3 (g,s,d)", len(info.Terminals))
	}
	// Source and drain must be separate nodes; gate its own.
	nodes := map[int]bool{}
	for _, term := range info.Terminals {
		nodes[term.Node] = true
	}
	if len(nodes) != 3 {
		t.Fatalf("transistor must have 3 distinct nodes, got %v", nodes)
	}
	if !info.SpacingExemptSameNet {
		t.Fatal("transistors are same-net spacing exempt")
	}
}

func TestTransistorMissingGateOverlap(t *testing.T) {
	// Figure 8 bottom: the gate overlap "does not exist"; most checkers
	// miss it. Build a transistor whose poly stops flush with the channel.
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	sym := d.MustSymbol("bad")
	sym.DeviceType = tech.DevNMOSEnh
	sym.AddBox(poly, geom.R(-250, -250, 250, 250), "") // no extension at all
	sym.AddBox(diff, geom.R(-750, -250, 750, 250), "")
	_, probs := Analyze(sym, tc)
	if !hasProblem(probs, "DEV.MOS.GATEEXT") {
		t.Fatalf("missing gate overlap not flagged: %v", probs)
	}
}

func TestTransistorShortGateOverlap(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	sym := d.MustSymbol("short")
	sym.DeviceType = tech.DevNMOSEnh
	sym.AddBox(poly, geom.R(-250, -500, 250, 500), "") // only 1λ extension
	sym.AddBox(diff, geom.R(-750, -250, 750, 250), "")
	_, probs := Analyze(sym, tc)
	if !hasProblem(probs, "DEV.MOS.GATEEXT") {
		t.Fatalf("short gate overlap not flagged: %v", probs)
	}
}

func TestTransistorNoChannel(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	sym := d.MustSymbol("noch")
	sym.DeviceType = tech.DevNMOSEnh
	sym.AddBox(poly, geom.R(0, 0, 500, 500), "")
	sym.AddBox(diff, geom.R(2000, 0, 2500, 500), "")
	_, probs := Analyze(sym, tc)
	if !hasProblem(probs, "DEV.MOS.NOCHANNEL") {
		t.Fatalf("missing channel not flagged: %v", probs)
	}
}

func TestContactOverGateInsideSymbol(t *testing.T) {
	// Figure 7 left: contact over the active gate is an error.
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewEnhTransistor(d, tc, "m1", 500, 500)
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	sym.AddBox(cutL, geom.R(-250, -250, 250, 250), "")
	_, probs := Analyze(sym, tc)
	if !hasProblem(probs, "DEV.GATE.CONTACT") {
		t.Fatalf("contact over gate not flagged: %v", probs)
	}
}

func TestDepletionImplant(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewDepTransistor(d, tc, "dep", 500, 500)
	if _, probs := Analyze(sym, tc); len(probs) != 0 {
		t.Fatalf("clean depletion transistor has problems: %v", probs)
	}
	// Remove the implant: must flag.
	d2 := layout.NewDesign("t2")
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	bad := d2.MustSymbol("dep2")
	bad.DeviceType = tech.DevNMOSDep
	bad.AddBox(poly, geom.R(-250, -750, 250, 750), "")
	bad.AddBox(diff, geom.R(-750, -250, 750, 250), "")
	_, probs := Analyze(bad, tc)
	if !hasProblem(probs, "DEV.MOS.IMPLANT") {
		t.Fatalf("missing implant not flagged: %v", probs)
	}
}

func TestPullupClean(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewPullup(d, tc, "pu")
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean pullup has problems: %v", probs)
	}
	// Channel is the gate crossing only — the arm under the buried window
	// is a tie, not a channel.
	if got := info.Gate.Bounds(); got != geom.R(-250, -250, 250, 250) {
		t.Fatalf("pullup channel = %v", got)
	}
	// Gate and source fused (node 0), drain separate.
	nodes := map[string]int{}
	for _, term := range info.Terminals {
		nodes[term.Name] = term.Node
	}
	if nodes["g"] != nodes["s"] {
		t.Fatalf("gate not tied to source: %v", nodes)
	}
	if nodes["d"] == nodes["s"] {
		t.Fatalf("drain fused with source: %v", nodes)
	}
}

func TestPullupMissingTie(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	impL, _ := tc.LayerByName(tech.NMOSImplant)
	s := d.MustSymbol("bad")
	s.DeviceType = tech.DevNMOSPullup
	s.AddBox(diffL, geom.R(-250, -1750, 250, 1250), "")
	s.AddBox(polyL, geom.R(-750, -250, 750, 250), "")
	s.AddBox(impL, geom.R(-625, -625, 625, 625), "")
	_, probs := Analyze(s, tc)
	if !hasProblem(probs, "DEV.PU.NOTIE") {
		t.Fatalf("missing tie not flagged: %v", probs)
	}
}

func TestContactClean(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewDiffContact(d, tc, "c1")
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean contact has problems: %v", probs)
	}
	if len(info.Terminals) != 2 {
		t.Fatalf("contact terminals = %d", len(info.Terminals))
	}
	// All terminals fused into one node.
	for _, term := range info.Terminals {
		if term.Node != 0 {
			t.Fatalf("contact terminal %q on node %d", term.Name, term.Node)
		}
	}
}

func TestContactEnclosureViolation(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	sym := d.MustSymbol("badc")
	sym.DeviceType = tech.DevContactDiff
	sym.AddBox(cutL, geom.R(-250, -250, 250, 250), "")
	sym.AddBox(metalL, geom.R(-250, -250, 250, 250), "") // no enclosure margin
	sym.AddBox(diffL, geom.R(-500, -500, 500, 500), "")
	_, probs := Analyze(sym, tc)
	if !hasProblem(probs, "DEV.CUT.METAL") {
		t.Fatalf("metal enclosure not flagged: %v", probs)
	}
}

func TestCheckedDeviceSuppressesProblems(t *testing.T) {
	// The paper's "flag specific devices as checked" mechanism.
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	sym := d.MustSymbol("special")
	sym.DeviceType = tech.DevNMOSEnh
	sym.Checked = true
	sym.AddBox(poly, geom.R(-250, -250, 250, 250), "") // rule-breaking
	sym.AddBox(diff, geom.R(-750, -250, 750, 250), "")
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("checked device still reports: %v", probs)
	}
	if info == nil || info.Gate.Empty() {
		t.Fatal("checked device must still yield its electrical model")
	}
}

func TestButtingContactClean(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewButtingContact(d, tc, "b1")
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean butting contact has problems: %v", probs)
	}
	// Butting contact has poly∩diff overlap but NO gate keepout — that is
	// the Figure 7 distinction.
	if !info.Gate.Empty() {
		t.Fatal("butting contact must not export a gate keepout")
	}
	for _, term := range info.Terminals {
		if term.Node != 0 {
			t.Fatal("butting contact fuses all terminals")
		}
	}
}

func TestBuriedContactRules(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewBuriedContact(d, tc, "bc")
	if _, probs := Analyze(sym, tc); len(probs) != 0 {
		t.Fatalf("clean buried contact has problems: %v", probs)
	}
	// Shrink the buried window below the overlap-of-overlap margin.
	d2 := layout.NewDesign("t2")
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	buriedL, _ := tc.LayerByName(tech.NMOSBuried)
	bad := d2.MustSymbol("bc2")
	bad.DeviceType = tech.DevBuried
	bad.AddBox(polyL, geom.R(-750, -250, 250, 250), "")
	bad.AddBox(diffL, geom.R(-250, -250, 750, 250), "")
	bad.AddBox(buriedL, geom.R(-250, -250, 250, 250), "") // no margin
	_, probs := Analyze(bad, tc)
	if !hasProblem(probs, "DEV.BURIED.WINDOW") {
		t.Fatalf("buried window margin not flagged: %v", probs)
	}
}

func TestResistorTerminalsAndExemption(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	sym := NewDiffResistor(d, tc, "r1", 2000)
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean resistor has problems: %v", probs)
	}
	if info.SpacingExemptSameNet {
		t.Fatal("resistors must NOT be same-net spacing exempt (Figure 5b)")
	}
	if len(info.Terminals) != 2 || info.Terminals[0].Node == info.Terminals[1].Node {
		t.Fatalf("resistor terminals = %+v", info.Terminals)
	}
	if !info.MayTouchIsolation {
		t.Fatal("resistor may touch isolation (Figure 6b)")
	}
	// Too-short resistor flags.
	d2 := layout.NewDesign("t2")
	short := NewDiffResistor(d2, tc, "r2", 500)
	if _, probs := Analyze(short, tc); !hasProblem(probs, "DEV.RES.LENGTH") {
		t.Fatalf("short resistor not flagged: %v", probs)
	}
}

func TestNPNRules(t *testing.T) {
	tc := tech.Bipolar()
	d := layout.NewDesign("t")
	sym := NewNPN(d, tc, "q1")
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean npn has problems: %v", probs)
	}
	if info.BaseKeepout.Empty() || info.BaseClearance <= 0 {
		t.Fatal("npn must export base keepout for Figure 6a")
	}
	if info.MayTouchIsolation {
		t.Fatal("npn base must not touch isolation")
	}
	// Emitter sticking out of the base flags.
	d2 := layout.NewDesign("t2")
	baseL, _ := tc.LayerByName(tech.BipBase)
	emL, _ := tc.LayerByName(tech.BipEmitter)
	bad := d2.MustSymbol("q2")
	bad.DeviceType = tech.DevNPN
	bad.AddBox(baseL, geom.R(0, 0, 800, 800), "")
	bad.AddBox(emL, geom.R(600, 600, 900, 900), "")
	if _, probs := Analyze(bad, tc); !hasProblem(probs, "DEV.NPN.ENCLOSE") {
		t.Fatalf("emitter enclosure not flagged: %v", probs)
	}
	// Isolation inside the symbol near the base flags.
	d3 := layout.NewDesign("t3")
	isoL, _ := tc.LayerByName(tech.BipIso)
	shorted := d3.MustSymbol("q3")
	shorted.DeviceType = tech.DevNPN
	shorted.AddBox(baseL, geom.R(0, 0, 800, 800), "")
	shorted.AddBox(emL, geom.R(250, 250, 550, 550), "")
	shorted.AddBox(isoL, geom.R(800, 0, 1200, 800), "") // touching the base
	if _, probs := Analyze(shorted, tc); !hasProblem(probs, "DEV.NPN.ISO") {
		t.Fatalf("base-isolation short not flagged: %v", probs)
	}
}

func TestBaseResistorMayTouchIsolation(t *testing.T) {
	tc := tech.Bipolar()
	d := layout.NewDesign("t")
	sym := NewBaseResistor(d, tc, "r1", 1000)
	info, probs := Analyze(sym, tc)
	if len(probs) != 0 {
		t.Fatalf("clean base resistor has problems: %v", probs)
	}
	if !info.MayTouchIsolation {
		t.Fatal("Figure 6b: base resistor may legally tie to isolation")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	notdev := d.MustSymbol("plain")
	if _, probs := Analyze(notdev, tc); !hasProblem(probs, "DEV.NOTDEVICE") {
		t.Fatalf("non-device symbol: %v", probs)
	}
	unk := d.MustSymbol("unknown")
	unk.DeviceType = "flux-capacitor"
	if _, probs := Analyze(unk, tc); !hasProblem(probs, "DEV.UNKNOWN") {
		t.Fatalf("unknown device type: %v", probs)
	}
}

func TestClassesRegistered(t *testing.T) {
	got := strings.Join(Classes(), ",")
	for _, want := range []string{"mos-transistor", "contact", "butting-contact", "buried-contact", "resistor", "npn-transistor"} {
		if !strings.Contains(got, want) {
			t.Fatalf("class %q missing from %q", want, got)
		}
	}
}

func TestPullupBuriedOverlapMargin(t *testing.T) {
	// A buried window flush with the tie (no cross-arm margin) must flag.
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	buriedL, _ := tc.LayerByName(tech.NMOSBuried)
	impL, _ := tc.LayerByName(tech.NMOSImplant)
	s := d.MustSymbol("pu")
	s.DeviceType = tech.DevNMOSPullup
	s.AddBox(diffL, geom.R(-250, -1750, 250, 1250), "")
	s.AddBox(polyL, geom.R(-750, -250, 750, 250), "")
	s.AddBox(polyL, geom.R(-250, -1250, 250, -250), "")
	s.AddBox(buriedL, geom.R(-250, -1500, 250, -250), "") // no x margin
	s.AddBox(impL, geom.R(-625, -625, 625, 625), "")
	_, probs := Analyze(s, tc)
	if !hasProblem(probs, "DEV.PU.BURIED") {
		t.Fatalf("flush buried window not flagged: %v", probs)
	}
}

func TestPullupMissingImplant(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	buriedL, _ := tc.LayerByName(tech.NMOSBuried)
	s := d.MustSymbol("pu")
	s.DeviceType = tech.DevNMOSPullup
	s.AddBox(diffL, geom.R(-250, -1750, 250, 1250), "")
	s.AddBox(polyL, geom.R(-750, -250, 750, 250), "")
	s.AddBox(polyL, geom.R(-250, -1250, 250, -250), "")
	s.AddBox(buriedL, geom.R(-500, -1500, 500, -250), "")
	_, probs := Analyze(s, tc)
	if !hasProblem(probs, "DEV.PU.IMPLANT") {
		t.Fatalf("missing implant not flagged: %v", probs)
	}
}

func TestButtingContactNarrowOverlap(t *testing.T) {
	// Poly-diffusion overlap below the rule width must flag.
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	s := d.MustSymbol("bc")
	s.DeviceType = tech.DevButting
	s.AddBox(diffL, geom.R(-750, -250, 100, 250), "") // only 100 overlap
	s.AddBox(polyL, geom.R(0, -250, 750, 250), "")
	s.AddBox(cutL, geom.R(-250, -250, 250, 250), "")
	s.AddBox(metalL, geom.R(-500, -500, 500, 500), "")
	_, probs := Analyze(s, tc)
	if !hasProblem(probs, "DEV.BUTT.OVERLAP") {
		t.Fatalf("narrow butting overlap not flagged: %v", probs)
	}
}

func TestContactCutTooSmall(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("t")
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	s := d.MustSymbol("c")
	s.DeviceType = tech.DevContactDiff
	s.AddBox(cutL, geom.R(-150, -250, 150, 250), "") // 300 < 500
	s.AddBox(metalL, geom.R(-500, -500, 500, 500), "")
	s.AddBox(diffL, geom.R(-500, -500, 500, 500), "")
	_, probs := Analyze(s, tc)
	if !hasProblem(probs, "DEV.CUT.SIZE") {
		t.Fatalf("small cut not flagged: %v", probs)
	}
}

// TestRolesResolveByTagOnly builds the nMOS deck with its poly layer's
// role tag removed. A layer takes a role only from its tag, so device
// analysis must agree with the rule table that the process has
// no poly: the transistor drawn on the untagged layer has no channel, and
// no gate for the accidental-transistor and gate-keepout checks to miss.
func TestRolesResolveByTagOnly(t *testing.T) {
	src, err := os.ReadFile("../tech/decks/nmos.deck")
	if err != nil {
		t.Fatal(err)
	}
	dk, err := deck.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	l, ok := dk.LayerByName(tech.NMOSPoly)
	if !ok || l.Role != tech.RolePoly {
		t.Fatalf("shipped nMOS deck: poly layer %+v", l)
	}
	// The deck validator refuses geometric rules on a layer without a
	// role, so they go with the tag.
	l.Role = ""
	widths, crosses := dk.Widths[:0], dk.Crosses[:0]
	for _, w := range dk.Widths {
		if w.Layer != tech.NMOSPoly {
			widths = append(widths, w)
		}
	}
	for _, c := range dk.Crosses {
		if c.A != tech.NMOSPoly && c.B != tech.NMOSPoly {
			crosses = append(crosses, c)
		}
	}
	dk.Widths, dk.Crosses = widths, crosses
	tc, _, err := tech.FromDeck(dk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, hasPoly := tc.Poly(); hasPoly {
		t.Fatal("the rule table finds a poly layer in a deck that tags none")
	}
	sym := NewEnhTransistor(layout.NewDesign("t"), tc, "m1", 500, 500)
	info, probs := Analyze(sym, tc)
	if !info.Gate.Empty() {
		t.Fatalf("device analysis finds gate %v on the untagged poly layer", info.Gate.Bounds())
	}
	if !hasProblem(probs, "DEV.MOS.NOCHANNEL") {
		t.Fatalf("problems %v, want DEV.MOS.NOCHANNEL", probs)
	}
}
