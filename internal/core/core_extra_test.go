package core

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/tech"
	"repro/internal/workload"
)

func ruleCount(t *testing.T, rep *Report, rule string) int {
	t.Helper()
	return CountByRule(rep.Violations)[rule]
}

func TestMetricOptionChangesSpacingVerdict(t *testing.T) {
	// Diagonal pair: L∞ 600 < 750, Euclidean 849 >= 750.
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("m")
	top := d.MustSymbol("top")
	top.AddBox(diff, geom.R(0, 0, 2000, 2000), "")
	top.AddBox(diff, geom.R(2600, 2600, 4600, 4600), "")
	d.Top = top

	euc, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ruleCount(t, euc, "S.ND.ND.diff"); n != 0 {
		t.Fatalf("euclidean DIC flagged the diagonal pair: %v", euc.Violations)
	}
	ortho, err := Check(d, tc, Options{SkipConstruction: true, Metric: Orthogonal})
	if err != nil {
		t.Fatal(err)
	}
	if n := ruleCount(t, ortho, "S.ND.ND.diff"); n != 1 {
		t.Fatalf("orthogonal DIC should exhibit the Figure 4 pathology: %v", ortho.Violations)
	}
}

func TestReferenceNetlistOption(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	d := layout.NewDesign("ref")
	tran := device.NewEnhTransistor(d, tc, "m", 500, 500)
	top := d.MustSymbol("top")
	top.AddCall(tran, geom.Identity, "m1")
	top.AddWire(diff, 500, "src", geom.Pt(-2000, 0), geom.Pt(-500, 0))
	top.AddWire(diff, 500, "drn", geom.Pt(300, 0), geom.Pt(2000, 0))
	top.AddWire(poly, 500, "gat", geom.Pt(0, 250), geom.Pt(0, 2500))
	d.Top = top

	good := netlist.Reference{
		"src": {"nmos-enh:s"}, "drn": {"nmos-enh:d"}, "gat": {"nmos-enh:g"},
	}
	rep, err := Check(d, tc, Options{SkipConstruction: true, Reference: good})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Errors() {
		if strings.HasPrefix(v.Rule, "NET.MIS") {
			t.Fatalf("good reference mismatched: %v", v)
		}
	}
	bad := netlist.Reference{"src": {"nmos-enh:g"}, "none": {"nmos-enh:d"}}
	rep2, err := Check(d, tc, Options{SkipConstruction: true, Reference: bad})
	if err != nil {
		t.Fatal(err)
	}
	if ruleCount(t, rep2, "NET.MISMATCH") != 1 || ruleCount(t, rep2, "NET.MISSING") != 1 {
		t.Fatalf("bad reference not reported: %v", rep2.Violations)
	}
}

func TestNoExemptionsAblation(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "abl", 2, 2)
	clean, err := Check(chip.Design, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() {
		t.Fatalf("chip not clean: %v", clean.Errors()[0])
	}
	ablated, err := Check(chip.Design, tc, Options{NoExemptions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ablated.Errors()) == 0 {
		t.Fatal("ablation produced no false errors; exemptions are not doing anything")
	}
	if ablated.Stats.InteractionChecked <= clean.Stats.InteractionChecked {
		t.Fatalf("ablation should measure more pairs: %d vs %d",
			ablated.Stats.InteractionChecked, clean.Stats.InteractionChecked)
	}
}

func TestGateKeepoutAcrossSymbols(t *testing.T) {
	// A contact DEVICE (not just a loose cut) placed over a transistor's
	// channel in another symbol (Figure 7 across the hierarchy).
	tc := tech.NMOS()
	d := layout.NewDesign("xsym")
	tran := device.NewEnhTransistor(d, tc, "m", 500, 500)
	ct := device.NewDiffContact(d, tc, "c")
	top := d.MustSymbol("top")
	top.AddCall(tran, geom.Identity, "m1")
	top.AddCall(ct, geom.Identity, "c1") // dead on the channel
	d.Top = top
	rep, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if ruleCount(t, rep, "DEV.GATE.CONTACT") == 0 {
		t.Fatalf("cross-symbol contact over gate not flagged: %v", rep.Violations)
	}
}

func TestBipolarKeepoutThroughPipeline(t *testing.T) {
	tc := tech.Bipolar()
	isoL, _ := tc.LayerByName(tech.BipIso)
	d := layout.NewDesign("bip")
	q := device.NewNPN(d, tc, "q")
	top := d.MustSymbol("top")
	top.AddCall(q, geom.Identity, "q1")
	top.AddWire(isoL, 400, "", geom.Pt(850, 400), geom.Pt(3000, 400)) // 50 from base
	d.Top = top
	rep, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if ruleCount(t, rep, "DEV.NPN.ISO") == 0 {
		t.Fatalf("isolation near base not flagged: %v", rep.Violations)
	}
}

func TestStageStatsPopulated(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "stats", 2, 2)
	rep, err := Check(chip.Design, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(rep.Stats.Stages))
	for _, s := range rep.Stats.Stages {
		names = append(names, s.Name)
		if s.Duration <= 0 {
			t.Errorf("stage %q has no duration", s.Name)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"check elements", "check primitive symbols",
		"generate hierarchical net list", "check legal connections",
		"check interactions", "check construction rules"} {
		if !strings.Contains(joined, want) {
			t.Errorf("stage %q missing from %v", want, names)
		}
	}
	if rep.Stats.ElementsChecked == 0 || rep.Stats.SymbolDefsChecked == 0 {
		t.Fatalf("definition-level counters empty: %+v", rep.Stats)
	}
	if rep.Stats.DeviceInstances != 2*2*5+2 {
		t.Fatalf("device instances = %d", rep.Stats.DeviceInstances)
	}
}

func TestViolationStringAndSorting(t *testing.T) {
	vs := []Violation{
		{Rule: "W.ND", Where: geom.R(5, 0, 6, 1), Symbol: "b"},
		{Rule: "S.X", Where: geom.R(0, 0, 1, 1), Path: "a.b"},
		{Rule: "W.ND", Where: geom.R(1, 0, 2, 1), Symbol: "a"},
	}
	sortViolations(vs)
	if vs[0].Rule != "S.X" || vs[1].Symbol != "a" || vs[2].Symbol != "b" {
		t.Fatalf("sort order wrong: %v", vs)
	}
	s := vs[0].String()
	if !strings.Contains(s, "S.X") || !strings.Contains(s, "a.b") {
		t.Fatalf("String() = %q", s)
	}
	w := Violation{Rule: "X", Severity: Warning}
	if !strings.Contains(w.String(), "warning") {
		t.Fatalf("warning severity not rendered: %q", w.String())
	}
}

func TestConnectionStageFlagsButtingAcrossInstances(t *testing.T) {
	// Figure 15 across the hierarchy: two instances of a legal cell
	// abutting so that their diffusion elements butt edge-to-edge.
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("butt")
	cell := d.MustSymbol("cell")
	cell.AddBox(diff, geom.R(0, 0, 2000, 500), "")
	top := d.MustSymbol("top")
	top.AddCall(cell, geom.Identity, "a")
	// Shallow overlap: an eighth of the width.
	top.AddCall(cell, geom.Translate(geom.Pt(1940, 0)), "b")
	d.Top = top
	rep, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if ruleCount(t, rep, "CONN.ILLEGAL") != 1 {
		t.Fatalf("cross-instance shallow overlap not flagged: %v", rep.Violations)
	}
}

func TestNetlistWarningsSurface(t *testing.T) {
	// A split declared net (NET.OPEN) surfaces as a warning, not an error.
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("open")
	top := d.MustSymbol("top")
	top.AddWire(metal, 750, "VDD", geom.Pt(0, 0), geom.Pt(2000, 0))
	top.AddWire(metal, 750, "VDD", geom.Pt(10000, 0), geom.Pt(12000, 0))
	d.Top = top
	rep, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "NET.OPEN" {
			found = true
			if v.Severity != Warning {
				t.Fatalf("NET.OPEN should be a warning: %v", v)
			}
		}
	}
	if !found {
		t.Fatalf("NET.OPEN not surfaced: %v", rep.Violations)
	}
	if !rep.Clean() {
		t.Fatal("warnings must not make the report unclean")
	}
}

func TestCheckRejectsInvalidDesign(t *testing.T) {
	d := layout.NewDesign("bad")
	if _, err := Check(d, tech.NMOS(), Options{}); err == nil {
		t.Fatal("design without top must be rejected")
	}
}

func TestNonManhattanPolygonReported(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("tri")
	top := d.MustSymbol("top")
	top.AddPolygon(diff, geom.Poly(0, 0, 1000, 0, 500, 800), "")
	d.Top = top
	rep, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if ruleCount(t, rep, "STRUCT.ELEM") == 0 {
		t.Fatalf("non-Manhattan polygon not reported: %v", rep.Violations)
	}
}

func TestDefinitionLevelWidthViolationReportedOnce(t *testing.T) {
	// A narrow wire inside a cell instantiated 8 times must be reported
	// once (per definition), not 8 times — the hierarchy economics.
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("defonce")
	cell := d.MustSymbol("cell")
	cell.AddWire(diff, 300, "", geom.Pt(0, 0), geom.Pt(2000, 0))
	top := d.MustSymbol("top")
	for i := 0; i < 8; i++ {
		top.AddCall(cell, geom.Translate(geom.Pt(int64(i)*10000, 0)), "")
	}
	d.Top = top
	rep, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ruleCount(t, rep, "W.ND"); n != 1 {
		t.Fatalf("definition-level width reported %d times, want 1", n)
	}
}

func TestProcessSpacingSecondOpinion(t *testing.T) {
	// A same-layer pair 100 under the 750 rule: the fixed rule flags it;
	// the process model (σ=λ/2, T=0.5: edges print where drawn) predicts a
	// healthy 650 printed gap and downgrades to a warning.
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("proc")
	top := d.MustSymbol("top")
	top.AddBox(diffL, geom.R(0, 0, 2000, 2000), "")
	top.AddBox(diffL, geom.R(2650, 0, 4650, 2000), "") // 650 < 750
	d.Top = top

	strict, err := Check(d, tc, Options{SkipConstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Errors()) != 1 {
		t.Fatalf("fixed rule should flag: %v", strict.Violations)
	}

	m := process.DefaultModel()
	soft, err := Check(d, tc, Options{
		SkipConstruction: true,
		ProcessSpacing:   &m,
		ProcessMargin:    200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(soft.Errors()) != 0 {
		t.Fatalf("process model should downgrade: %v", soft.Errors())
	}
	if soft.Stats.ProcessDowngrades != 1 {
		t.Fatalf("downgrades = %d", soft.Stats.ProcessDowngrades)
	}
	// The violation is still visible as a warning.
	if len(soft.Violations) != 1 || soft.Violations[0].Severity != Warning {
		t.Fatalf("downgraded violation missing: %v", soft.Violations)
	}

	// A genuinely marginal pair (nearly touching) stays an error even
	// under the process model.
	d2 := layout.NewDesign("proc2")
	top2 := d2.MustSymbol("top")
	top2.AddBox(diffL, geom.R(0, 0, 2000, 2000), "")
	top2.AddBox(diffL, geom.R(2100, 0, 4100, 2000), "") // 100 gap
	d2.Top = top2
	hard, err := Check(d2, tc, Options{
		SkipConstruction: true,
		ProcessSpacing:   &m,
		ProcessMargin:    200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hard.Errors()) != 1 {
		t.Fatalf("marginal pair must stay an error: %v", hard.Violations)
	}
}

func TestProcessSpacingMisalignmentCrossLayer(t *testing.T) {
	// Cross-layer pairs get worst-case misalignment: a gap the same-layer
	// check would clear fails once the mask can shift λ/2 closer.
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	d := layout.NewDesign("mis")
	top := d.MustSymbol("top")
	top.AddBox(diffL, geom.R(0, 0, 2000, 2000), "")
	top.AddBox(polyL, geom.R(2200, 0, 4200, 2000), "") // 200 < 250 rule
	d.Top = top
	m := process.DefaultModel()
	rep, err := Check(d, tc, Options{
		SkipConstruction: true,
		ProcessSpacing:   &m,
		ProcessMargin:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 200 gap - 125 misalignment = 75 printed < 100 margin: stays error.
	if len(rep.Errors()) != 1 {
		t.Fatalf("misaligned cross-layer pair must stay an error: %v", rep.Violations)
	}
}
