package workload

import (
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Pathology is a small layout reproducing one of the paper's figures, with
// the behaviour each checker should exhibit.
type Pathology struct {
	Name   string
	Figure string // paper figure reference
	Design *layout.Design
	Tech   *tech.Technology

	// ExpectDICRules are rule prefixes the DIC must report (empty = clean).
	ExpectDICRules []string
	// ExpectFlatRules are rule prefixes the baseline must report.
	ExpectFlatRules []string
	// FlatMisses marks behaviour the baseline cannot see (region 1 of
	// Figure 1); FlatFalse marks baseline reports on legal layout
	// (region 3).
	FlatMisses bool
	FlatFalse  bool
	Notes      string
}

// Figure2LegalFiguresIllegalComposite builds two individually legal poly
// figures whose union contains an illegal 400-notch (the rule is 500). The
// union-first baseline sees one clean component; the DIC reports the
// butting construction and the too-close spacing.
func Figure2LegalFiguresIllegalComposite() Pathology {
	tc := tech.NMOS()
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	d := layout.NewDesign("fig2a")
	top := d.MustSymbol("top")
	// An L-shaped polygon: bottom bar plus left arm. Legal width (500).
	top.AddPolygon(polyL, geom.Poly(0, 0, 2000, 0, 2000, 500, 500, 500, 500, 2500, 0, 2500), "")
	// A rect abutting the bottom bar, 400 away from the left arm.
	top.AddBox(polyL, geom.R(900, 500, 1400, 2500), "")
	d.Top = top
	return Pathology{
		Name: "legal-figures-illegal-composite", Figure: "Figure 2 (left)",
		Design: d, Tech: tc,
		ExpectDICRules:  []string{"S.NP.NP"},
		ExpectFlatRules: nil,
		FlatMisses:      true,
		Notes:           "each figure is legal; the union has a 400 notch the union-first baseline cannot see",
	}
}

// Figure2NarrowFiguresLegalComposite builds two half-width boxes butting
// into a legal-width composite (also the Figure 15 self-sufficiency
// violation). The DIC flags each narrow element; the baseline unions them
// into clean geometry and reports nothing.
func Figure2NarrowFiguresLegalComposite() Pathology {
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("fig2b")
	top := d.MustSymbol("top")
	top.AddBox(diffL, geom.R(0, 0, 2000, 250), "")   // half of min width 500
	top.AddBox(diffL, geom.R(0, 250, 2000, 500), "") // the other half
	d.Top = top
	return Pathology{
		Name: "narrow-figures-legal-composite", Figure: "Figure 2 (right) / Figure 15",
		Design: d, Tech: tc,
		ExpectDICRules:  []string{"W.ND"},
		ExpectFlatRules: nil,
		FlatMisses:      true,
		Notes:           "self-sufficiency: each element must be legal alone; the union hides the construction",
	}
}

// Figure5ElectricalEquivalence builds two diffusion pads on the same net
// (tied through contacts and metal) spaced 2λ apart where the rule is 3λ.
// The DIC skips the same-net subcase; the netless baseline reports a
// spacing error — a false error.
func Figure5ElectricalEquivalence() Pathology {
	tc := tech.NMOS()
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("fig5a")
	c1 := device.NewDiffContact(d, tc, "c1")
	c2 := device.NewDiffContact(d, tc, "c2")
	top := d.MustSymbol("top")
	top.AddCall(c1, geom.Translate(geom.Pt(500, 500)), "c1")
	top.AddCall(c2, geom.Translate(geom.Pt(2000, 500)), "c2")
	// The two 1000-wide diffusion pads sit at x [0,1000] and [1500,2500]:
	// 500 apart, rule 750 — but one metal wire ties them into one net.
	top.AddWire(metalL, 750, "eq", geom.Pt(300, 500), geom.Pt(2200, 500))
	d.Top = top
	return Pathology{
		Name: "electrical-equivalence", Figure: "Figure 5a",
		Design: d, Tech: tc,
		ExpectDICRules:  nil,
		ExpectFlatRules: []string{"FLAT.S.ND"},
		FlatFalse:       true,
		Notes:           "same-net spacing is unnecessary; the baseline has no nets and flags it",
	}
}

// Figure5ResistorException builds a diffusion resistor with a same-net
// wire folded back 2λ from its body. Even on the same net the spacing must
// be checked — a short across the body changes the circuit — so here the
// DIC must flag while the same-net exemption would have hidden it.
func Figure5ResistorException() Pathology {
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("fig5b")
	res := device.NewDiffResistor(d, tc, "r", 2000) // body [0,0]-[2000,500]
	top := d.MustSymbol("top")
	top.AddCall(res, geom.Identity, "r1")
	// Wire from the b end, folded back over the body at 500 gap (rule 750).
	top.AddWire(diffL, 500, "",
		geom.Pt(1750, 250), geom.Pt(3500, 250), geom.Pt(3500, 1250), geom.Pt(500, 1250))
	d.Top = top
	return Pathology{
		Name: "resistor-same-net-spacing", Figure: "Figure 5b",
		Design: d, Tech: tc,
		ExpectDICRules: []string{"S.ND.ND"},
		Notes:          "resistors are NOT same-net exempt; a short across the body is critical",
	}
}

// Figure6DeviceDependentRules builds the bipolar pair: a transistor whose
// base is touched by isolation (error) and a base resistor tied to
// isolation (legal ground tie).
func Figure6DeviceDependentRules() (errCase, okCase Pathology) {
	mk := func(name string, useNPN bool) Pathology {
		tc := tech.Bipolar()
		isoL, _ := tc.LayerByName(tech.BipIso)
		d := layout.NewDesign(name)
		top := d.MustSymbol("top")
		var expect []string
		if useNPN {
			q := device.NewNPN(d, tc, "q")
			top.AddCall(q, geom.Identity, "q1")
			// Isolation wire abutting the base (base is [0,800]²).
			top.AddWire(isoL, 400, "", geom.Pt(800, 400), geom.Pt(3000, 400))
			expect = []string{"DEV.NPN.ISO"}
		} else {
			r := device.NewBaseResistor(d, tc, "r", 1000) // body [0,1000]x[0,400]
			top.AddCall(r, geom.Identity, "r1")
			top.AddWire(isoL, 400, "", geom.Pt(1000, 200), geom.Pt(3000, 200))
		}
		d.Top = top
		return Pathology{
			Name: name, Figure: "Figure 6",
			Design: d, Tech: tc,
			ExpectDICRules: expect,
			Notes:          "identical geometry, different device: only the transistor case is an error",
		}
	}
	return mk("npn-base-isolation-short", true), mk("resistor-isolation-tie", false)
}

// Figure7ContactVsButting builds a transistor with a contact cut on its
// gate (error) and a legal butting contact. The DIC flags only the former;
// the baseline's mask rule flags both.
func Figure7ContactVsButting() Pathology {
	tc := tech.NMOS()
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	d := layout.NewDesign("fig7")
	tr := device.NewEnhTransistor(d, tc, "t", 500, 500)
	bc := device.NewButtingContact(d, tc, "b")
	top := d.MustSymbol("top")
	top.AddCall(tr, geom.Identity, "t1")
	top.AddCall(bc, geom.Translate(geom.Pt(6000, 0)), "b1")
	// Interconnect cut landing on t1's channel.
	top.AddBox(cutL, geom.R(-250, -250, 250, 250), "")
	d.Top = top
	return Pathology{
		Name: "contact-over-gate-vs-butting", Figure: "Figure 7",
		Design: d, Tech: tc,
		ExpectDICRules:  []string{"DEV.GATE.CONTACT"},
		ExpectFlatRules: []string{"FLAT.GATECONTACT"},
		FlatFalse:       true, // the baseline also flags the butting contact
		Notes:           "the DIC reports one error; the baseline reports two, one of them false",
	}
}

// Figure8AccidentalTransistor builds an intentional transistor next to an
// accidental poly-diffusion crossing. The DIC flags the accidental one;
// the baseline flags neither.
func Figure8AccidentalTransistor() Pathology {
	tc := tech.NMOS()
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("fig8")
	tr := device.NewEnhTransistor(d, tc, "t", 500, 500)
	top := d.MustSymbol("top")
	top.AddCall(tr, geom.Identity, "t1")
	// Accidental crossing far from the device.
	top.AddWire(diffL, 500, "", geom.Pt(5000, 0), geom.Pt(9000, 0))
	top.AddWire(polyL, 500, "", geom.Pt(7000, -2000), geom.Pt(7000, 2000))
	d.Top = top
	return Pathology{
		Name: "accidental-transistor", Figure: "Figure 8",
		Design: d, Tech: tc,
		ExpectDICRules: []string{"DEV.ACCIDENTAL"},
		FlatMisses:     true,
		Notes:          "the baseline accepts the crossing because it forms a legal transistor",
	}
}

// Figure15SelfSufficiency builds two legal-width boxes overlapping a
// quarter width: a shallow, non-skeletal connection. The union is legal
// geometry; the construction is not.
func Figure15SelfSufficiency() Pathology {
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("fig15")
	top := d.MustSymbol("top")
	top.AddBox(diffL, geom.R(0, 0, 2000, 500), "")
	top.AddBox(diffL, geom.R(1875, 0, 3875, 500), "")
	d.Top = top
	return Pathology{
		Name: "shallow-overlap", Figure: "Figure 15 / Figure 11 (right)",
		Design: d, Tech: tc,
		ExpectDICRules: []string{"CONN.ILLEGAL"},
		FlatMisses:     true,
		Notes:          "overlap by at least the minimum width; hierarchical checking depends on it",
	}
}

// AllPathologies returns every pathology case for table-style experiments.
func AllPathologies() []Pathology {
	fig6err, fig6ok := Figure6DeviceDependentRules()
	return []Pathology{
		Figure2LegalFiguresIllegalComposite(),
		Figure2NarrowFiguresLegalComposite(),
		Figure5ElectricalEquivalence(),
		Figure5ResistorException(),
		fig6err,
		fig6ok,
		Figure7ContactVsButting(),
		Figure8AccidentalTransistor(),
		Figure15SelfSufficiency(),
	}
}

// DoublingCIF is hostile input of a few hundred bytes per level: an nMOS
// metal box in symbol 1, and each of symbols 2..levels calling the
// previous one twice, side by side. It parses to 2^(levels-1) flattened
// instances of the box, which the design-size cap must refuse.
func DoublingCIF(levels int) string {
	var b strings.Builder
	b.WriteString("DS 1; L NM; B 400 400 200 200; DF;\n")
	for i := 2; i <= levels; i++ {
		fmt.Fprintf(&b, "DS %d; C %d; C %d T %d 0; DF;\n", i, i-1, i-1, int64(500)<<(i-2))
	}
	fmt.Fprintf(&b, "C %d;\nE\n", levels)
	return b.String()
}

// ChainCIF is hostile input of a few dozen bytes per level: an nMOS metal
// box in symbol 1, and each of symbols 2..levels calling the previous one
// once. It flattens to one box in levels instances, a hierarchy levels
// deep, which the depth cap must refuse once levels passes it.
func ChainCIF(levels int) string {
	var b strings.Builder
	b.WriteString("DS 1; L NM; B 400 400 200 200; DF;\n")
	for i := 2; i <= levels; i++ {
		fmt.Fprintf(&b, "DS %d; C %d; DF;\n", i, i-1)
	}
	fmt.Fprintf(&b, "C %d;\nE\n", levels)
	return b.String()
}
