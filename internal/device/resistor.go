package device

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// analyzeResistor models a diffused resistor (Figure 5b and Figure 6b).
// The body is a single strip on one diffusion layer; its two end caps are
// the terminals, deliberately on DIFFERENT nodes: a resistor between two
// nets is not a short, and a resistor's own halves must still satisfy
// spacing against each other even on the same net — the paper's Figure 5
// distinction, captured by SpacingExemptSameNet=false.
//
// For the bipolar technology, MayTouchIsolation is set: tying a resistor
// end to the isolation diffusion is the legal ground tie of Figure 6b.
func analyzeResistor(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	var probs []Problem
	// The body lives on whichever resistive layer the symbol draws on: an
	// explicit "body" role binding, else the first diffusion- or base-role
	// layer with geometry in the symbol.
	bodyID := tech.NoLayer
	if _, bound := spec.Layers["body"]; bound {
		bodyID = roleID(tc, spec, "body")
	} else {
		for _, role := range []string{tech.RoleDiffusion, tech.RoleBase} {
			if id, ok := tc.LayerFor(spec, role); ok && !sym.LayerRegion(id).Empty() {
				bodyID = id
				break
			}
		}
	}
	info := &Info{
		SpacingExemptSameNet: false, // Figure 5b: resistors keep same-net spacing checks
		MayTouchIsolation:    true,  // Figure 6b: legal isolation tie
	}
	if bodyID == tech.NoLayer {
		probs = append(probs, Problem{
			Rule: "DEV.RES.BODY", Detail: "resistor symbol has no body geometry", Where: sym.Bounds(),
		})
		return info, probs
	}
	body := sym.LayerRegion(bodyID)
	if comps := body.Components(); len(comps) != 1 {
		probs = append(probs, Problem{
			Rule:   "DEV.RES.BODY",
			Detail: fmt.Sprintf("resistor body has %d components, need 1", len(comps)),
			Where:  body.Bounds(),
		})
	}
	b := body.Bounds()
	if ml := spec.Params["min-length"]; ml > 0 {
		if length := maxInt64(b.W(), b.H()); length < ml {
			probs = append(probs, Problem{
				Rule:   "DEV.RES.LENGTH",
				Detail: fmt.Sprintf("resistor length %d below minimum %d", length, ml),
				Where:  b,
			})
		}
	}

	// Terminals: end caps along the major axis, one minimum-width deep.
	capDepth := tc.Layer(bodyID).MinWidth
	if capDepth <= 0 {
		capDepth = 1
	}
	var capA, capB geom.Rect
	if b.W() >= b.H() {
		capA = geom.Rect{X1: b.X1, Y1: b.Y1, X2: minInt64(b.X1+capDepth, b.X2), Y2: b.Y2}
		capB = geom.Rect{X1: maxInt64(b.X2-capDepth, b.X1), Y1: b.Y1, X2: b.X2, Y2: b.Y2}
	} else {
		capA = geom.Rect{X1: b.X1, Y1: b.Y1, X2: b.X2, Y2: minInt64(b.Y1+capDepth, b.Y2)}
		capB = geom.Rect{X1: b.X1, Y1: maxInt64(b.Y2-capDepth, b.Y1), X2: b.X2, Y2: b.Y2}
	}
	info.Terminals = append(info.Terminals,
		Terminal{Name: "a", Layer: bodyID, Reg: body.Clip(capA), Node: 0},
		Terminal{Name: "b", Layer: bodyID, Reg: body.Clip(capB), Node: 1},
	)
	return info, probs
}

// analyzeNPN models the simplified bipolar transistor of Figure 6a: the
// emitter must sit inside the base with the specified enclosure, and the
// base region must keep clear of the isolation diffusion — connecting them
// "destroys the integrity of the device". The base keepout is exported so
// the interaction stage can check it against isolation geometry anywhere in
// the chip, not just inside the symbol.
func analyzeNPN(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	var probs []Problem
	base := roleRegion(sym, tc, spec, tech.RoleBase)
	emitter := roleRegion(sym, tc, spec, tech.RoleEmitter)
	iso := roleRegion(sym, tc, spec, tech.RoleIsolation)
	info := &Info{SpacingExemptSameNet: true}

	if base.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.NPN.BASE", Detail: "npn symbol has no base", Where: sym.Bounds(),
		})
		return info, probs
	}
	if emitter.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.NPN.EMITTER", Detail: "npn symbol has no emitter", Where: base.Bounds(),
		})
	} else if ee := spec.Params["emitter-enclosure"]; ee > 0 {
		probs = requireCovered(emitter.Dilate(ee), base, "DEV.NPN.ENCLOSE",
			fmt.Sprintf("base must enclose the emitter by %d", ee), probs)
	}

	clear := spec.Params["iso-clearance"]
	info.BaseKeepout = base
	info.BaseClearance = clear
	// Isolation inside the symbol itself is checked here; isolation
	// elsewhere in the chip is the interaction stage's job.
	if !iso.Empty() && clear > 0 {
		if vs := geom.SpacingViolations(base, iso, clear); len(vs) > 0 {
			for _, v := range vs {
				probs = append(probs, Problem{
					Rule:   "DEV.NPN.ISO",
					Detail: "transistor base touches or approaches isolation (Figure 6a)",
					Where:  v,
				})
			}
		}
	}

	info.Terminals = append(info.Terminals,
		Terminal{Name: "b", Layer: roleID(tc, spec, tech.RoleBase), Reg: base, Node: 0},
	)
	if !emitter.Empty() {
		info.Terminals = append(info.Terminals,
			Terminal{Name: "e", Layer: roleID(tc, spec, tech.RoleEmitter), Reg: emitter, Node: 1},
		)
	}
	return info, probs
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
