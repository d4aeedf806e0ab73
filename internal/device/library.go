package device

import (
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Library constructors build canonical, rule-clean primitive device symbols
// for the shipped technologies. Workload generators, tests and examples all
// draw from these, so "known good" geometry is defined in exactly one
// place. All devices are centered at the origin unless noted.

// NewEnhTransistor builds an enhancement nMOS transistor with channel
// length l (poly strip width, x extent) and channel width w (diffusion
// strip width, y extent), both in centimicrons.
func NewEnhTransistor(d *layout.Design, tc *tech.Technology, name string, l, w int64) *layout.Symbol {
	return newMOS(d, tc, name, tech.DevNMOSEnh, l, w, false)
}

// NewDepTransistor builds a depletion nMOS transistor (implanted channel).
func NewDepTransistor(d *layout.Design, tc *tech.Technology, name string, l, w int64) *layout.Symbol {
	return newMOS(d, tc, name, tech.DevNMOSDep, l, w, true)
}

func newMOS(d *layout.Design, tc *tech.Technology, name, devType string, l, w int64, implant bool) *layout.Symbol {
	spec, _ := tc.Device(devType)
	gext := spec.Params["gate-extension"]
	sdext := spec.Params["sd-extension"]
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	diff, _ := tc.LayerByName(tech.NMOSDiff)

	s := d.MustSymbol(name)
	s.DeviceType = devType
	s.AddBox(poly, geom.R(-l/2, -w/2-gext, l-l/2, w-w/2+gext), "")
	s.AddBox(diff, geom.R(-l/2-sdext, -w/2, l-l/2+sdext, w-w/2), "")
	if implant {
		io := spec.Params["implant-overlap"]
		imp, _ := tc.LayerByName(tech.NMOSImplant)
		s.AddBox(imp, geom.R(-l/2-io, -w/2-io, l-l/2+io, w-w/2+io), "")
	}
	return s
}

// NewDiffContact builds a metal-diffusion contact.
func NewDiffContact(d *layout.Design, tc *tech.Technology, name string) *layout.Symbol {
	return newContact(d, tc, name, tech.DevContactDiff, tech.NMOSDiff)
}

// NewPolyContact builds a metal-poly contact.
func NewPolyContact(d *layout.Design, tc *tech.Technology, name string) *layout.Symbol {
	return newContact(d, tc, name, tech.DevContactPoly, tech.NMOSPoly)
}

// NewContact builds a canonical contact for any declared contact-class
// device type, resolving the cut, metal, and lower-conductor layers
// through the device's role bindings — the deck's "use" lines — so one
// builder serves every process (the CMOS workload draws its n-diffusion,
// p-diffusion, and poly contacts from it).
func NewContact(d *layout.Design, tc *tech.Technology, name, devType string) *layout.Symbol {
	spec, _ := tc.Device(devType)
	cutL, _ := tc.LayerFor(spec, tech.RoleContact)
	metalL, _ := tc.LayerFor(spec, tech.RoleMetal)
	lowerL, _ := tc.LayerFor(spec, "lower")
	return buildContact(d, tc, name, devType, cutL, metalL, lowerL)
}

func newContact(d *layout.Design, tc *tech.Technology, name, devType, lowerName string) *layout.Symbol {
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)
	lowerL, _ := tc.LayerByName(lowerName)
	return buildContact(d, tc, name, devType, cutL, metalL, lowerL)
}

// buildContact lays down the shared contact geometry: the cut at origin,
// metal and lower conductor enclosing it by the spec margins.
func buildContact(d *layout.Design, tc *tech.Technology, name, devType string, cutL, metalL, lowerL tech.LayerID) *layout.Symbol {
	spec, _ := tc.Device(devType)
	cs := spec.Params["cut-size"]
	me := spec.Params["metal-enclosure"]
	le := spec.Params["lower-enclosure"]

	s := d.MustSymbol(name)
	s.DeviceType = devType
	cut := geom.R(-cs/2, -cs/2, cs-cs/2, cs-cs/2)
	s.AddBox(cutL, cut, "")
	s.AddBox(metalL, cut.Expand(me), "")
	s.AddBox(lowerL, cut.Expand(le), "")
	return s
}

// NewButtingContact builds the legal poly-diffusion butting contact of
// Figure 7: overlapping poly and diffusion, cut over the overlap, metal
// over the cut.
func NewButtingContact(d *layout.Design, tc *tech.Technology, name string) *layout.Symbol {
	spec, _ := tc.Device(tech.DevButting)
	me := spec.Params["metal-enclosure"]
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	metalL, _ := tc.LayerByName(tech.NMOSMetal)

	s := d.MustSymbol(name)
	s.DeviceType = tech.DevButting
	s.AddBox(diffL, geom.R(-750, -250, 250, 250), "")
	s.AddBox(polyL, geom.R(-250, -250, 750, 250), "")
	cut := geom.R(-250, -250, 250, 250) // covers the 2λ-wide overlap
	s.AddBox(cutL, cut, "")
	s.AddBox(metalL, cut.Expand(me), "")
	return s
}

// NewBuriedContact builds a poly-diffusion buried contact.
func NewBuriedContact(d *layout.Design, tc *tech.Technology, name string) *layout.Symbol {
	spec, _ := tc.Device(tech.DevBuried)
	bo := spec.Params["buried-overlap"]
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	buriedL, _ := tc.LayerByName(tech.NMOSBuried)

	s := d.MustSymbol(name)
	s.DeviceType = tech.DevBuried
	s.AddBox(polyL, geom.R(-750, -250, 250, 250), "")
	s.AddBox(diffL, geom.R(-250, -250, 750, 250), "")
	overlap := geom.R(-250, -250, 250, 250)
	s.AddBox(buriedL, overlap.Expand(bo), "")
	return s
}

// NewDiffResistor builds a diffusion resistor strip of the given length
// (x extent); width is the layer minimum.
func NewDiffResistor(d *layout.Design, tc *tech.Technology, name string, length int64) *layout.Symbol {
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	w := tc.Layer(diffL).MinWidth
	s := d.MustSymbol(name)
	s.DeviceType = tech.DevResistorD
	s.AddBox(diffL, geom.R(0, 0, length, w), "")
	return s
}

// NewPullup builds the canonical depletion pullup with buried gate tie:
// vertical diffusion, crossing gate at the origin, poly arm descending into
// a buried window. The source (tied to the gate) is the lower diffusion
// part, the drain (VDD side) the upper.
func NewPullup(d *layout.Design, tc *tech.Technology, name string) *layout.Symbol {
	polyL, _ := tc.LayerByName(tech.NMOSPoly)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	buriedL, _ := tc.LayerByName(tech.NMOSBuried)
	impL, _ := tc.LayerByName(tech.NMOSImplant)

	s := d.MustSymbol(name)
	s.DeviceType = tech.DevNMOSPullup
	s.AddBox(diffL, geom.R(-250, -1750, 250, 1250), "")
	s.AddBox(polyL, geom.R(-750, -250, 750, 250), "")   // gate
	s.AddBox(polyL, geom.R(-250, -1250, 250, -250), "") // arm to the tie
	s.AddBox(buriedL, geom.R(-500, -1500, 500, -250), "")
	s.AddBox(impL, geom.R(-625, -625, 625, 625), "")
	return s
}

// NewNPN builds the simplified bipolar transistor of Figure 6a.
func NewNPN(d *layout.Design, tc *tech.Technology, name string) *layout.Symbol {
	baseL, _ := tc.LayerByName(tech.BipBase)
	emL, _ := tc.LayerByName(tech.BipEmitter)
	s := d.MustSymbol(name)
	s.DeviceType = tech.DevNPN
	s.AddBox(baseL, geom.R(0, 0, 800, 800), "")
	s.AddBox(emL, geom.R(250, 250, 550, 550), "")
	return s
}

// NewBaseResistor builds the base-diffusion resistor of Figure 6b.
func NewBaseResistor(d *layout.Design, tc *tech.Technology, name string, length int64) *layout.Symbol {
	baseL, _ := tc.LayerByName(tech.BipBase)
	w := tc.Layer(baseL).MinWidth
	s := d.MustSymbol(name)
	s.DeviceType = tech.DevResistorBase
	s.AddBox(baseL, geom.R(0, 0, length, w), "")
	return s
}
