// Package device implements the paper's device model: devices exist only
// as *primitive device symbols* (declared via the extended-CIF 9D command),
// so device recognition is replaced by device checking.
//
// For every device class the package provides two things:
//
//   - Analysis: the device's electrical terminals (with their geometry, in
//     symbol coordinates) and its protected regions — the MOS channel that
//     contacts must stay off (Figure 7), the bipolar base that isolation
//     must stay clear of (Figure 6). Terminals carry node numbers: a
//     contact fuses all its terminals into one node, a transistor keeps
//     gate/source/drain separate, and a resistor deliberately keeps its two
//     ends separate so that a resistor between power and ground is not a
//     short (Figure 5b).
//
//   - Checking: the device-internal geometric rules ("check primitive
//     symbols" in the Figure 10 pipeline) — enclosures, overlaps, and
//     overlap-of-overlap rules. A symbol marked Checked (9D ... CHK) is
//     exempt, which is the paper's mechanism for special devices that
//     intentionally break the rules.
package device

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Terminal is one electrical terminal of a device, in symbol coordinates.
type Terminal struct {
	Name  string
	Layer tech.LayerID
	Reg   geom.Region
	// Node groups internally connected terminals: terminals with equal
	// Node are fused inside the device (e.g. the layers of a contact).
	Node int
}

// Info is the electrical analysis of a primitive device symbol.
type Info struct {
	Class     string
	Type      string // declared type name
	Terminals []Terminal

	// Gate is the MOS channel region (poly∩diffusion) that contact cuts
	// must never overlap (Figure 7); empty for non-MOS devices.
	Gate geom.Region

	// BaseKeepout is the bipolar base region that must keep clear of the
	// isolation diffusion (Figure 6a); empty unless the device demands it.
	BaseKeepout geom.Region
	// BaseClearance is the required clearance for BaseKeepout.
	BaseClearance int64

	// MayTouchIsolation marks devices for which contact with isolation is
	// legal (the Figure 6b resistor).
	MayTouchIsolation bool

	// SpacingExemptSameNet: elements of this device are exempt from
	// same-net spacing (true for everything except resistors, Figure 5).
	SpacingExemptSameNet bool
}

// Problem is a device-level rule violation.
type Problem struct {
	Rule   string    // stable rule id, e.g. "DEV.GATE.EXT"
	Detail string    // human explanation
	Where  geom.Rect // location in symbol coordinates
}

func (p Problem) String() string {
	return fmt.Sprintf("%s at %v: %s", p.Rule, p.Where, p.Detail)
}

// analyzer computes Info and internal problems for one device class.
type analyzer func(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem)

// registry maps device class names (tech.DeviceSpec.Class) to analyzers.
var registry = map[string]analyzer{
	"mos-transistor":  analyzeMOS,
	"pullup":          analyzePullup,
	"contact":         analyzeContact,
	"butting-contact": analyzeButting,
	"buried-contact":  analyzeBuried,
	"resistor":        analyzeResistor,
	"npn-transistor":  analyzeNPN,
}

// Classes returns the registered device class names, sorted.
func Classes() []string {
	out := make([]string, 0, len(registry))
	for c := range registry {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Analyze computes the electrical model of a primitive device symbol and,
// unless the symbol is marked Checked, its internal rule violations.
// Symbols whose declared type is unknown to the technology yield a single
// DEV.UNKNOWN problem and no Info. The result depends only on the symbol's
// own content, never its name: callers cache it by own content hash and
// share it between symbols that draw the same device.
func Analyze(sym *layout.Symbol, tc *tech.Technology) (*Info, []Problem) {
	if sym.DeviceType == "" {
		return nil, []Problem{{
			Rule:   "DEV.NOTDEVICE",
			Detail: "not a device symbol (no device type declared)",
			Where:  sym.Bounds(),
		}}
	}
	spec, ok := tc.Device(sym.DeviceType)
	if !ok {
		return nil, []Problem{{
			Rule:   "DEV.UNKNOWN",
			Detail: fmt.Sprintf("device type %q not in technology %s", sym.DeviceType, tc.Name),
			Where:  sym.Bounds(),
		}}
	}
	an, ok := registry[spec.Class]
	if !ok {
		return nil, []Problem{{
			Rule:   "DEV.NOCLASS",
			Detail: fmt.Sprintf("no analyzer for device class %q", spec.Class),
			Where:  sym.Bounds(),
		}}
	}
	info, probs := an(sym, spec, tc)
	if info != nil {
		info.Type = sym.DeviceType
		info.Class = spec.Class
	}
	if sym.Checked {
		// The designer vouches for this device (9D ... CHK): keep the
		// electrical model, drop the rule problems.
		probs = nil
	}
	return info, probs
}

// roleRegion unions a symbol's elements on the layer a device-rule role
// resolves to: the device's explicit "use" binding first, then the
// technology's role-tagged layer. The role indirection is what lets one
// analyzer serve both polarities of a CMOS process — the p-channel spec
// binds "diffusion" to the p-diffusion layer.
func roleRegion(sym *layout.Symbol, tc *tech.Technology, spec tech.DeviceSpec, role string) geom.Region {
	id, ok := tc.LayerFor(spec, role)
	if !ok {
		return geom.EmptyRegion()
	}
	return sym.LayerRegion(id)
}

// roleID resolves a device-rule role to a layer id, NoLayer if unbound.
func roleID(tc *tech.Technology, spec tech.DeviceSpec, role string) tech.LayerID {
	id, ok := tc.LayerFor(spec, role)
	if !ok {
		return tech.NoLayer
	}
	return id
}

// requireCovered reports a problem when part of `need` is not covered by
// `have`; the violation location is the bounding box of the uncovered part.
func requireCovered(need, have geom.Region, rule, detail string, probs []Problem) []Problem {
	miss := need.Subtract(have)
	if miss.Empty() {
		return probs
	}
	return append(probs, Problem{Rule: rule, Detail: detail, Where: miss.Bounds()})
}
