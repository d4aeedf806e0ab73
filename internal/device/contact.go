package device

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// analyzeContact models simple metal-to-lower-layer contacts. All layers of
// a contact are fused into a single node; the internal rules are cut size,
// metal enclosure, and lower-layer enclosure. The lower layer is whichever
// non-metal, non-cut conductor the symbol contains geometry on.
func analyzeContact(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	var probs []Problem
	metalID, cutID := contactLayers(tc, spec)
	metal := sym.LayerRegion(metalID)
	cut := sym.LayerRegion(cutID)

	// Find the lower conductor: the explicit "lower" role binding when the
	// deck declares one, otherwise the layer (other than metal/cut) with
	// geometry in the symbol.
	lowerID := tech.NoLayer
	if _, bound := spec.Layers["lower"]; bound {
		lowerID = roleID(tc, spec, "lower")
	} else {
		for _, l := range tc.Layers() {
			if l.ID == metalID || l.ID == cutID {
				continue
			}
			if !sym.LayerRegion(l.ID).Empty() {
				lowerID = l.ID
				break
			}
		}
	}
	info := &Info{SpacingExemptSameNet: true}

	if cut.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.CUT.MISSING", Detail: "contact symbol has no cut", Where: sym.Bounds(),
		})
		return info, probs
	}
	if cs := spec.Params["cut-size"]; cs > 0 {
		for _, v := range geom.WidthViolations(cut, cs) {
			probs = append(probs, Problem{
				Rule:   "DEV.CUT.SIZE",
				Detail: fmt.Sprintf("contact cut narrower than %d", cs),
				Where:  v,
			})
		}
	}
	if me := spec.Params["metal-enclosure"]; me > 0 {
		if metal.Empty() {
			probs = append(probs, Problem{
				Rule: "DEV.CUT.METAL", Detail: "contact has no metal", Where: cut.Bounds(),
			})
		} else {
			probs = requireCovered(cut.Dilate(me), metal, "DEV.CUT.METAL",
				fmt.Sprintf("metal must enclose the cut by %d", me), probs)
		}
	}
	if le := spec.Params["lower-enclosure"]; le > 0 {
		if lowerID == tech.NoLayer {
			probs = append(probs, Problem{
				Rule: "DEV.CUT.LOWER", Detail: "contact has no lower conductor", Where: cut.Bounds(),
			})
		} else {
			lower := sym.LayerRegion(lowerID)
			probs = requireCovered(cut.Dilate(le), lower, "DEV.CUT.LOWER",
				fmt.Sprintf("%s must enclose the cut by %d", tc.Layer(lowerID).Name, le), probs)
		}
	}

	// Terminals: every conductor fused into node 0.
	if !metal.Empty() {
		info.Terminals = append(info.Terminals, Terminal{Name: "m", Layer: metalID, Reg: metal, Node: 0})
	}
	if lowerID != tech.NoLayer {
		info.Terminals = append(info.Terminals, Terminal{
			Name: "l", Layer: lowerID, Reg: sym.LayerRegion(lowerID), Node: 0,
		})
	}
	return info, probs
}

// analyzeButting models the poly-diffusion butting contact of Figure 7: a
// legal structure that a naive "no contact may touch poly∩diffusion" rule
// would flag. Poly and diffusion overlap, the cut covers the overlap, and
// metal covers the cut; everything is one node.
func analyzeButting(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	var probs []Problem
	poly := roleRegion(sym, tc, spec, tech.RolePoly)
	diff := roleRegion(sym, tc, spec, tech.RoleDiffusion)
	cut := roleRegion(sym, tc, spec, tech.RoleContact)
	metal := roleRegion(sym, tc, spec, tech.RoleMetal)
	info := &Info{SpacingExemptSameNet: true}

	overlap := poly.Intersect(diff)
	if overlap.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.BUTT.OVERLAP", Detail: "butting contact needs poly-diffusion overlap", Where: sym.Bounds(),
		})
		return info, probs
	}
	if ov := spec.Params["overlap"]; ov > 0 {
		if !geom.MinWidthOK(overlap, ov) {
			probs = append(probs, Problem{
				Rule:   "DEV.BUTT.OVERLAP",
				Detail: fmt.Sprintf("poly-diffusion overlap narrower than %d", ov),
				Where:  overlap.Bounds(),
			})
		}
	}
	if cut.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.BUTT.CUT", Detail: "butting contact has no cut", Where: overlap.Bounds(),
		})
	} else {
		probs = requireCovered(overlap, cut, "DEV.BUTT.CUT",
			"cut must cover the poly-diffusion overlap", probs)
	}
	if me := spec.Params["metal-enclosure"]; me > 0 && !cut.Empty() {
		probs = requireCovered(cut.Dilate(me), metal, "DEV.BUTT.METAL",
			fmt.Sprintf("metal must enclose the cut by %d", me), probs)
	}

	for _, t := range []struct {
		name string
		role string
		reg  geom.Region
	}{
		{"p", tech.RolePoly, poly},
		{"d", tech.RoleDiffusion, diff},
		{"m", tech.RoleMetal, metal},
	} {
		if !t.reg.Empty() {
			info.Terminals = append(info.Terminals, Terminal{
				Name: t.name, Layer: roleID(tc, spec, t.role), Reg: t.reg, Node: 0,
			})
		}
	}
	return info, probs
}

// analyzeBuried models the buried contact: poly and diffusion joined under
// a buried window — the paper's example of an "overlap of overlap" rule.
// The buried window must enclose the poly∩diffusion overlap.
func analyzeBuried(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	var probs []Problem
	poly := roleRegion(sym, tc, spec, tech.RolePoly)
	diff := roleRegion(sym, tc, spec, tech.RoleDiffusion)
	buried := roleRegion(sym, tc, spec, tech.RoleBuried)
	info := &Info{SpacingExemptSameNet: true}

	overlap := poly.Intersect(diff)
	if overlap.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.BURIED.OVERLAP", Detail: "buried contact needs poly-diffusion overlap", Where: sym.Bounds(),
		})
		return info, probs
	}
	if buried.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.BURIED.WINDOW", Detail: "buried contact has no buried window", Where: overlap.Bounds(),
		})
	} else if bo := spec.Params["buried-overlap"]; bo > 0 {
		probs = requireCovered(overlap.Dilate(bo), buried, "DEV.BURIED.WINDOW",
			fmt.Sprintf("buried window must enclose the overlap by %d", bo), probs)
	}
	if !poly.Empty() {
		info.Terminals = append(info.Terminals, Terminal{
			Name: "p", Layer: roleID(tc, spec, tech.RolePoly), Reg: poly, Node: 0,
		})
	}
	if !diff.Empty() {
		info.Terminals = append(info.Terminals, Terminal{
			Name: "d", Layer: roleID(tc, spec, tech.RoleDiffusion), Reg: diff, Node: 0,
		})
	}
	return info, probs
}

// contactLayers resolves the metal and cut layers through the device's
// role bindings or the technology's role tags.
func contactLayers(tc *tech.Technology, spec tech.DeviceSpec) (metal, cut tech.LayerID) {
	metal = roleID(tc, spec, tech.RoleMetal)
	cut = roleID(tc, spec, tech.RoleContact)
	return metal, cut
}
