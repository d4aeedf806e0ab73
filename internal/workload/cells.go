// Package workload generates synthetic chips and pathological layouts for
// the experiments. The paper evaluated on real Caltech/DEC designs that no
// longer exist in machine-readable form; these generators substitute
// parameterized hierarchical designs with *known ground truth*: a clean
// chip is verified clean, and every injected error is recorded, which is
// the only way to measure the real/false/unchecked error economics of the
// paper's Figure 1 at all.
//
// The standard cell is a classic nMOS inverter: enhancement pulldown,
// depletion pullup with buried gate tie, butting contact presenting the
// output on poly, contacts to metal power rails. Its coordinates are
// derived so that the full DIC pipeline reports zero violations — every
// clearance is at exactly the rule distance or better, every connection is
// skeletal — making it a sharp regression test for the checker itself.
package workload

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// CellLibrary holds the shared primitive device symbols of a design.
type CellLibrary struct {
	Tech     *tech.Technology
	Pulldown *layout.Symbol // enhancement transistor, long south gate
	Pullup   *layout.Symbol // depletion pullup with buried tie
	CGnd     *layout.Symbol // diffusion contact
	CVdd     *layout.Symbol // diffusion contact
	CPoly    *layout.Symbol // poly contact (row input heads)
	Butting  *layout.Symbol // butting contact (output diff->poly)
}

// NewCellLibrary creates the shared device symbols in the design.
func NewCellLibrary(d *layout.Design, tc *tech.Technology) *CellLibrary {
	lib := &CellLibrary{Tech: tc}
	// Pulldown: standard channel, but the gate runs 4λ south so the input
	// poly can merge with it 1λ clear of the diffusion.
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	pd := d.MustSymbol("lib.pulldown")
	pd.DeviceType = tech.DevNMOSEnh
	pd.AddBox(polyL, geom.R(-250, -1250, 250, 750), "")
	pd.AddBox(diffL, geom.R(-750, -250, 750, 250), "")
	lib.Pulldown = pd

	lib.Pullup = device.NewPullup(d, tc, "lib.pullup")
	lib.CGnd = device.NewDiffContact(d, tc, "lib.contact-gnd")
	lib.CVdd = device.NewDiffContact(d, tc, "lib.contact-vdd")
	lib.CPoly = device.NewPolyContact(d, tc, "lib.contact-in")
	lib.Butting = device.NewButtingContact(d, tc, "lib.butting")
	return lib
}

// Cell geometry constants (centimicrons, λ=250). The horizontal cell pitch
// makes adjacent cells' chain ports coincide; the vertical pitch separates
// rows with rule-clean margins.
const (
	PitchX = 7000
	PitchY = 8000

	// Chain port positions (wire path endpoints, cell coordinates).
	WestPortX = -2750
	EastPortX = 4250
	PortY     = -1500

	// Rail centerlines.
	GndRailY = -2250
	VddRailY = 3750
)

// NewInverterCell builds the standard inverter cell symbol. The cell
// contains no rails (rows own those); it exposes:
//
//	input:  poly wire ending at (WestPortX, PortY)
//	output: poly wire ending at (EastPortX, PortY) — equals the next
//	        cell's west port at PitchX spacing
//	GND:    metal strap crossing GndRailY at x=-2000
//	VDD:    contact pad under VddRailY at x=2000
func NewInverterCell(d *layout.Design, lib *CellLibrary, name string) *layout.Symbol {
	tc := lib.Tech
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)

	s := d.MustSymbol(name)
	s.AddCall(lib.Pulldown, geom.Identity, "t1")
	s.AddCall(lib.Pullup, geom.Translate(geom.Pt(2000, 2000)), "pu")
	s.AddCall(lib.CGnd, geom.Translate(geom.Pt(-2000, 0)), "cg")
	s.AddCall(lib.CVdd, geom.Translate(geom.Pt(2000, 3750)), "cv")
	s.AddCall(lib.Butting, geom.Translate(geom.Pt(3250, 0)), "bc")

	// Source to ground: diffusion from the pulldown source into the ground
	// contact pad.
	s.AddWire(diffL, 500, "GND", geom.Pt(-2000, 0), geom.Pt(-500, 0))
	// Ground strap: metal from the contact down across the row's GND rail.
	s.AddWire(metalL, 750, "GND", geom.Pt(-2000, 0), geom.Pt(-2000, GndRailY))
	// Output: pulldown drain east to the butting contact, with a tap up
	// into the pullup source.
	s.AddWire(diffL, 500, "", geom.Pt(500, 0), geom.Pt(2750, 0))
	s.AddWire(diffL, 500, "", geom.Pt(2000, 0), geom.Pt(2000, 500))
	// VDD: pullup drain up into the VDD contact pad.
	s.AddWire(diffL, 500, "VDD", geom.Pt(2000, 2500), geom.Pt(2000, 3750))
	// Input: west port, route east below the ground contact, then up and
	// into the long south gate of the pulldown, 1λ clear of the diffusion.
	s.AddWire(polyL, 500, "",
		geom.Pt(WestPortX, PortY), geom.Pt(-750, PortY),
		geom.Pt(-750, -750), geom.Pt(0, -750))
	// Output chain: from the butting contact's poly arm down and east to
	// the east port.
	s.AddWire(polyL, 500, "",
		geom.Pt(3750, 0), geom.Pt(3750, PortY), geom.Pt(EastPortX, PortY))
	return s
}

// NewRow builds a row symbol: cols inverter cells chained west-to-east,
// with a poly-contact input head, and the row's GND and VDD rails.
// rowEastEnd returns the x coordinate the chip's GND trunk runs at.
func NewRow(d *layout.Design, lib *CellLibrary, name string, cell *layout.Symbol, cols int) *layout.Symbol {
	tc := lib.Tech
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)

	row := d.MustSymbol(name)
	for c := 0; c < cols; c++ {
		row.AddCall(cell, geom.Translate(geom.Pt(int64(c)*PitchX, 0)), fmt.Sprintf("c%d", c))
	}
	// Input head: poly contact feeding the first cell's west port.
	row.AddCall(lib.CPoly, geom.Translate(geom.Pt(-4500, PortY)), "head")
	row.AddWire(polyL, 500, "", geom.Pt(-4250, PortY), geom.Pt(WestPortX, PortY))

	east := RowEastEnd(cols)
	// Rails: GND along the bottom out to the east trunk, VDD along the top
	// out to the west trunk.
	row.AddWire(metalL, 750, "GND", geom.Pt(-2750, GndRailY), geom.Pt(east, GndRailY))
	row.AddWire(metalL, 750, "VDD", geom.Pt(VddTrunkX, VddRailY), geom.Pt(int64(cols-1)*PitchX+4250, VddRailY))
	return row
}

// Trunk positions (chip coordinates).
const VddTrunkX = -6500

// RowEastEnd returns the GND trunk x position for a row of cols cells.
func RowEastEnd(cols int) int64 { return int64(cols-1)*PitchX + 6000 }

// Chip assembles rows into a chip with power trunks.
type Chip struct {
	Design *layout.Design
	Lib    *CellLibrary
	Rows   int
	Cols   int
}

// NewChip builds a rows×cols inverter-array chip. All rows share one cell
// and one row definition — the regularity the paper's hierarchical
// checking exploits.
func NewChip(tc *tech.Technology, name string, rows, cols int) *Chip {
	d := layout.NewDesign(name)
	lib := NewCellLibrary(d, tc)
	cell := NewInverterCell(d, lib, "inv")
	row := NewRow(d, lib, "row", cell, cols)

	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	top := d.MustSymbol("chip")
	for r := 0; r < rows; r++ {
		top.AddCall(row, geom.Translate(geom.Pt(0, int64(r)*PitchY)), fmt.Sprintf("r%d", r))
	}
	if rows > 1 {
		// Vertical trunks tie the per-row rails into single nets.
		top.AddWire(metalL, 750, "VDD",
			geom.Pt(VddTrunkX, VddRailY), geom.Pt(VddTrunkX, int64(rows-1)*PitchY+VddRailY))
		east := RowEastEnd(cols)
		top.AddWire(metalL, 750, "GND",
			geom.Pt(east, GndRailY), geom.Pt(east, int64(rows-1)*PitchY+GndRailY))
	}
	d.Top = top
	return &Chip{Design: d, Lib: lib, Rows: rows, Cols: cols}
}

// DeviceCount returns the number of device instances on the chip.
func (c *Chip) DeviceCount() int {
	return c.Design.Stats().FlatDevices
}

// NewChipUnique builds a rows×cols inverter-array chip in which every row
// is its own symbol ("row0".."row<n-1>") instead of one shared master:
// uniquely named, content-identical rows, as a uniquified layout has them.
// The cells inside each row still share one definition. The rows are twins
// — the same drawing under different names — so the checker's content
// addresses, which ignore names, give them one set of cached results until
// an edit parts one row from the rest: an edit to one row leaves the other
// rows' definitions (and their cached per-definition checking artifacts)
// untouched, which is the workload the incremental engine's
// single-symbol-edit experiments measure. A caller that wants distinct
// definitions draws something different into each row.
func NewChipUnique(tc *tech.Technology, name string, rows, cols int) *Chip {
	d := layout.NewDesign(name)
	lib := NewCellLibrary(d, tc)
	cell := NewInverterCell(d, lib, "inv")

	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	top := d.MustSymbol("chip")
	for r := 0; r < rows; r++ {
		row := NewRow(d, lib, fmt.Sprintf("row%d", r), cell, cols)
		top.AddCall(row, geom.Translate(geom.Pt(0, int64(r)*PitchY)), fmt.Sprintf("r%d", r))
	}
	if rows > 1 {
		top.AddWire(metalL, 750, "VDD",
			geom.Pt(VddTrunkX, VddRailY), geom.Pt(VddTrunkX, int64(rows-1)*PitchY+VddRailY))
		east := RowEastEnd(cols)
		top.AddWire(metalL, 750, "GND",
			geom.Pt(east, GndRailY), geom.Pt(east, int64(rows-1)*PitchY+GndRailY))
	}
	d.Top = top
	return &Chip{Design: d, Lib: lib, Rows: rows, Cols: cols}
}
