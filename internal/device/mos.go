package device

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/tech"
)

// analyzeMOS models silicon-gate MOS transistors (enhancement and
// depletion): the channel is the poly∩diffusion overlap; poly must extend
// past the channel (the Figure 14 gate overlap, whose absence is the
// unchecked error of Figure 8), diffusion must extend into source and
// drain, depletion devices need the implant to surround the gate, and no
// contact may land on the channel (Figure 7).
func analyzeMOS(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	poly := roleRegion(sym, tc, spec, tech.RolePoly)
	diff := roleRegion(sym, tc, spec, tech.RoleDiffusion)
	cut := roleRegion(sym, tc, spec, tech.RoleContact)
	var probs []Problem

	channel := poly.Intersect(diff)
	if channel.Empty() {
		probs = append(probs, Problem{
			Rule:   "DEV.MOS.NOCHANNEL",
			Detail: "transistor symbol has no poly-diffusion overlap",
			Where:  sym.Bounds(),
		})
		return &Info{SpacingExemptSameNet: true}, probs
	}

	gext := spec.Params["gate-extension"]
	sdext := spec.Params["sd-extension"]

	// Gate extension: the channel dilated along each axis, outside the
	// diffusion, must be covered by poly. For a straight transistor the
	// "wrong" axis contributes an empty requirement, so checking both axes
	// needs no orientation knowledge.
	if gext > 0 {
		needV := channel.DilateXY(0, gext).Subtract(diff)
		needH := channel.DilateXY(gext, 0).Subtract(diff)
		probs = requireCovered(needV, poly, "DEV.MOS.GATEEXT",
			fmt.Sprintf("poly must extend %d past the channel (gate overlap)", gext), probs)
		probs = requireCovered(needH, poly, "DEV.MOS.GATEEXT",
			fmt.Sprintf("poly must extend %d past the channel (gate overlap)", gext), probs)
	}

	// Source/drain extension: channel dilated along each axis, outside the
	// poly, must be covered by diffusion.
	if sdext > 0 {
		needV := channel.DilateXY(0, sdext).Subtract(poly)
		needH := channel.DilateXY(sdext, 0).Subtract(poly)
		probs = requireCovered(needV, diff, "DEV.MOS.SDEXT",
			fmt.Sprintf("diffusion must extend %d past the channel (source/drain)", sdext), probs)
		probs = requireCovered(needH, diff, "DEV.MOS.SDEXT",
			fmt.Sprintf("diffusion must extend %d past the channel (source/drain)", sdext), probs)
	}

	// Depletion implant: must surround the channel.
	if io := spec.Params["implant-overlap"]; io > 0 {
		implant := roleRegion(sym, tc, spec, tech.RoleImplant)
		if implant.Empty() {
			probs = append(probs, Problem{
				Rule:   "DEV.MOS.IMPLANT",
				Detail: "depletion transistor has no implant",
				Where:  channel.Bounds(),
			})
		} else {
			probs = requireCovered(channel.Dilate(io), implant, "DEV.MOS.IMPLANT",
				fmt.Sprintf("implant must surround the gate by %d", io), probs)
		}
	}

	// No contact over the active gate (Figure 7) — within the symbol.
	if !cut.Empty() && cut.Overlaps(channel) {
		probs = append(probs, Problem{
			Rule:   "DEV.GATE.CONTACT",
			Detail: "contact cut over the active gate",
			Where:  cut.Intersect(channel).Bounds(),
		})
	}

	// Terminals: gate on poly, then the diffusion parts either side of the
	// channel as source/drain. A working transistor has at least two.
	info := &Info{
		Gate:                 channel,
		SpacingExemptSameNet: true,
	}
	info.Terminals = append(info.Terminals, Terminal{
		Name: "g", Layer: roleID(tc, spec, tech.RolePoly), Reg: poly, Node: 0,
	})
	sd := diff.Subtract(channel).Components()
	if len(sd) < 2 {
		probs = append(probs, Problem{
			Rule:   "DEV.MOS.SD",
			Detail: fmt.Sprintf("diffusion splits into %d parts around the channel, need 2", len(sd)),
			Where:  diff.Bounds(),
		})
	}
	for i, part := range sd {
		name := "sd" + string(rune('0'+i%10))
		if i == 0 {
			name = "s"
		} else if i == 1 {
			name = "d"
		}
		info.Terminals = append(info.Terminals, Terminal{
			Name: name, Layer: roleID(tc, spec, tech.RoleDiffusion), Reg: part, Node: i + 1,
		})
	}
	return info, probs
}

// analyzePullup models the classic nMOS depletion pullup with a buried
// gate-to-source tie: a vertical diffusion strip, a crossing gate, a poly
// arm running down the diffusion into a buried window that fuses gate and
// source. The channel is the poly∩diffusion overlap OUTSIDE the buried
// window — the paper's "overlap of overlap" rule family in action.
func analyzePullup(sym *layout.Symbol, spec tech.DeviceSpec, tc *tech.Technology) (*Info, []Problem) {
	poly := roleRegion(sym, tc, spec, tech.RolePoly)
	diff := roleRegion(sym, tc, spec, tech.RoleDiffusion)
	buried := roleRegion(sym, tc, spec, tech.RoleBuried)
	var probs []Problem
	info := &Info{SpacingExemptSameNet: true}

	overlap := poly.Intersect(diff)
	if overlap.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.PU.NOCHANNEL", Detail: "pullup has no poly-diffusion overlap", Where: sym.Bounds(),
		})
		return info, probs
	}
	channel := overlap.Subtract(buried)
	tie := overlap.Intersect(buried)
	if channel.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.PU.NOCHANNEL", Detail: "buried window swallows the whole channel", Where: overlap.Bounds(),
		})
		return info, probs
	}
	if tie.Empty() {
		probs = append(probs, Problem{
			Rule: "DEV.PU.NOTIE", Detail: "pullup gate is not tied (no buried window over poly∩diff)", Where: overlap.Bounds(),
		})
	}
	gext := spec.Params["gate-extension"]
	if gext > 0 {
		needV := channel.DilateXY(0, gext).Subtract(diff)
		needH := channel.DilateXY(gext, 0).Subtract(diff)
		probs = requireCovered(needV, poly, "DEV.PU.GATEEXT",
			fmt.Sprintf("poly must extend %d past the channel", gext), probs)
		probs = requireCovered(needH, poly, "DEV.PU.GATEEXT",
			fmt.Sprintf("poly must extend %d past the channel", gext), probs)
	}
	if sdext := spec.Params["sd-extension"]; sdext > 0 {
		needV := channel.DilateXY(0, sdext).Subtract(poly)
		needH := channel.DilateXY(sdext, 0).Subtract(poly)
		probs = requireCovered(needV, diff, "DEV.PU.SDEXT",
			fmt.Sprintf("diffusion must extend %d past the channel", sdext), probs)
		probs = requireCovered(needH, diff, "DEV.PU.SDEXT",
			fmt.Sprintf("diffusion must extend %d past the channel", sdext), probs)
	}
	if io := spec.Params["implant-overlap"]; io > 0 {
		implant := roleRegion(sym, tc, spec, tech.RoleImplant)
		if implant.Empty() {
			probs = append(probs, Problem{
				Rule: "DEV.PU.IMPLANT", Detail: "pullup has no implant", Where: channel.Bounds(),
			})
		} else {
			probs = requireCovered(channel.Dilate(io), implant, "DEV.PU.IMPLANT",
				fmt.Sprintf("implant must surround the gate by %d", io), probs)
		}
	}
	if bo := spec.Params["buried-overlap"]; bo > 0 && !tie.Empty() {
		// The window must enclose the tie by bo along at least one axis
		// (the cross direction of the arm; the other axis runs into the
		// channel, where the window must not go).
		missH := tie.DilateXY(bo, 0).Subtract(buried)
		missV := tie.DilateXY(0, bo).Subtract(buried)
		if !missH.Empty() && !missV.Empty() {
			probs = append(probs, Problem{
				Rule:   "DEV.PU.BURIED",
				Detail: fmt.Sprintf("buried window must enclose the tie by %d across the arm", bo),
				Where:  missH.Bounds(),
			})
		}
	}
	cut := roleRegion(sym, tc, spec, tech.RoleContact)
	if !cut.Empty() && cut.Overlaps(channel) {
		probs = append(probs, Problem{
			Rule: "DEV.GATE.CONTACT", Detail: "contact cut over the pullup gate", Where: cut.Intersect(channel).Bounds(),
		})
	}

	info.Gate = channel
	polyL := roleID(tc, spec, tech.RolePoly)
	diffL := roleID(tc, spec, tech.RoleDiffusion)
	// Terminal nodes: the diffusion part fused to the gate through the
	// buried tie is the source (node 0, with the poly); the other part is
	// the drain (node 1).
	info.Terminals = append(info.Terminals, Terminal{Name: "g", Layer: polyL, Reg: poly, Node: 0})
	parts := diff.Subtract(channel).Components()
	if len(parts) < 2 {
		probs = append(probs, Problem{
			Rule:   "DEV.PU.SD",
			Detail: fmt.Sprintf("diffusion splits into %d parts around the channel, need 2", len(parts)),
			Where:  diff.Bounds(),
		})
	}
	drainNamed := false
	for _, part := range parts {
		if part.Overlaps(tie) {
			info.Terminals = append(info.Terminals, Terminal{Name: "s", Layer: diffL, Reg: part, Node: 0})
		} else if !drainNamed {
			info.Terminals = append(info.Terminals, Terminal{Name: "d", Layer: diffL, Reg: part, Node: 1})
			drainNamed = true
		}
	}
	return info, probs
}
