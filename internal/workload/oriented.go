package workload

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// NewOrientedBlocks builds a small nMOS design whose every piece of
// geometry sits under a composed rotation: a cell holding a diffusion
// contact device, a block calling the cell once under each of the eight
// orientations, and a top calling the block twice, under R90 and MX270.
// The two blocks mirror each other across a 400 gap: the cells at their
// facing edges meet as one metal/diffusion net (a top strap ties the two
// contact pads, so those spacing pairs are same-net) and as two separate
// poly stubs, a different-net pair closer than the poly rule.
func NewOrientedBlocks(tc *tech.Technology) *layout.Design {
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("oriented")

	// The cell: contact pad [-500,500]², a metal arm east, a diffusion tail
	// south, and an isolated poly stub reaching the pad's west edge.
	cell := d.MustSymbol("ocell")
	cell.AddCall(device.NewDiffContact(d, tc, "ocontact"), geom.Identity, "ct")
	cell.AddWire(metalL, 750, "", geom.Pt(0, 0), geom.Pt(3000, 0))
	cell.AddWire(diffL, 500, "", geom.Pt(0, 0), geom.Pt(0, -2500))
	cell.AddWire(polyL, 500, "", geom.Pt(-250, 1250), geom.Pt(2000, 1250))

	block := d.MustSymbol("oblock")
	for o := geom.R0; o <= geom.MX270; o++ {
		block.AddCall(cell, geom.NewTransform(o, geom.Pt(int64(o)*8000, 0)), fmt.Sprintf("c%d", o))
	}

	// Both block transforms send block x to chip y, so c0's west edge
	// (block x = -500) faces its mirror image across y = -700.
	top := d.MustSymbol("otop")
	top.AddCall(block, geom.NewTransform(geom.R90, geom.Pt(0, 0)), "b1")
	top.AddCall(block, geom.NewTransform(geom.MX270, geom.Pt(0, -1400)), "b2")
	top.AddWire(metalL, 750, "", geom.Pt(0, 0), geom.Pt(0, -1400))
	d.Top = top
	return d
}

// NewTranslatedFamilies builds a small nMOS design in which translation
// families sit at two levels under non-R0 orientations: a block places one
// cell three times under R90 at different offsets, and the top places the
// block twice under MX. Each later placement differs from the first only
// by an offset, so it is a view of the first. The cell holds a diffusion
// contact, a transistor, a declared net and a declared rail; the placements
// overlap and approach one another in both directions, so connections,
// illegal contacts and spacing pairs cross between members of each family.
func NewTranslatedFamilies(tc *tech.Technology) *layout.Design {
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("families")

	// The cell: contact pad [-500,500]², a metal arm east that reaches the
	// centre of the next placement's pad, a grounded diffusion tail south,
	// and a transistor west whose gate poly runs north.
	cell := d.MustSymbol("fcell")
	cell.AddCall(device.NewDiffContact(d, tc, "fcontact"), geom.Identity, "ct")
	cell.AddCall(device.NewEnhTransistor(d, tc, "ftr", 500, 1000), geom.Translate(geom.Pt(-2500, 0)), "t")
	cell.AddWire(metalL, 750, "out", geom.Pt(0, 0), geom.Pt(3500, 0))
	cell.AddWire(diffL, 500, "GND", geom.Pt(0, 0), geom.Pt(0, -2500))
	cell.AddWire(polyL, 500, "", geom.Pt(-2500, 750), geom.Pt(-2500, 2250))

	// Under R90 the arm runs north: each cell's arm overlaps the pad of
	// the cell placed 3500 above it.
	block := d.MustSymbol("fblock")
	for i := int64(0); i < 3; i++ {
		block.AddCall(cell, geom.NewTransform(geom.R90, geom.Pt(0, 3500*i)), fmt.Sprintf("c%d", i))
	}

	// MX sends block y to chip -y. The second block sits 1900 lower, so
	// its gate poly stubs come within the poly-diffusion spacing of the
	// first block's diffusion tails; a top strap across both blocks' metal
	// arms merges their declared nets.
	top := d.MustSymbol("ftop")
	top.AddCall(block, geom.NewTransform(geom.MX, geom.Pt(0, 0)), "b1")
	top.AddCall(block, geom.NewTransform(geom.MX, geom.Pt(4900, -1900)), "b2")
	top.AddWire(metalL, 750, "", geom.Pt(0, -1900), geom.Pt(4900, -1900))
	d.Top = top
	return d
}
