package core

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// pairEnv answers the net/device relationship questions of the Figure 12
// subcases for the candidate pairs of one definition. A local net class
// maps to a label, and two classes are one net when their labels are
// equal: under an instance's net-environment signature the label is the
// class's block in the signature's merge partition; in the root frame
// (labels nil) the root's classes are the global net ids themselves.
// Whether two nets share a device comes from the signature's share bytes,
// or in the root frame straight from the net facts. For the root instance
// both answer alike, so the root-patch replay can adjudicate pairs into a
// tally first adjudicated under the root's signature.
type pairEnv struct {
	di     *defInter
	labels []int     // per candClasses position; nil: classes are global net ids
	share  []byte    // per classPairAt position: the two nets share a device
	facts  *netFacts // the root frame's share answers (share is unused)
}

func (s *pairEnv) label(cl netlist.NetID) int {
	if s.labels == nil {
		return int(cl)
	}
	return s.labels[s.di.classPos[int(cl)]]
}

// sameNet reports whether the items are on the same electrical net.
func (s *pairEnv) sameNet(a, b *netlist.ConnItem) bool {
	return a.Net != netlist.NoNet && b.Net != netlist.NoNet && s.label(a.Net) == s.label(b.Net)
}

// devOnNet reports whether a local device has a terminal on a class's net.
func (s *pairEnv) devOnNet(dev int, net netlist.NetID) bool {
	want := s.label(net)
	for _, tcl := range s.di.termClasses[dev] {
		if s.label(netlist.NetID(tcl)) == want {
			return true
		}
	}
	return false
}

// related reports whether the items are related through a device: one
// device's, or one on a net a device of the other has a terminal on, or on
// two nets that meet at a common device — e.g. the source and drain feed
// wires of one transistor, whose separation is the channel, not a spacing.
func (s *pairEnv) related(a, b *netlist.ConnItem) bool {
	if a.Dev >= 0 && a.Dev == b.Dev {
		return true
	}
	if a.Dev >= 0 && b.Net != netlist.NoNet && s.devOnNet(a.Dev, b.Net) {
		return true
	}
	if b.Dev >= 0 && a.Net != netlist.NoNet && s.devOnNet(b.Dev, a.Net) {
		return true
	}
	if a.Net == netlist.NoNet || b.Net == netlist.NoNet {
		return false
	}
	if s.facts != nil {
		return s.facts.shares(a.Net, b.Net) // of one net: it carries a device
	}
	cp := [2]int{int(a.Net), int(b.Net)}
	if cp[0] > cp[1] {
		cp[0], cp[1] = cp[1], cp[0]
	}
	return s.share[s.di.classPairPos[cp]] != 0
}

// keepsSameNetSpacing reports whether a local device demands spacing
// checks even on its own net (resistors, Figure 5b).
func (s *pairEnv) keepsSameNetSpacing(dev int) bool {
	if dev < 0 {
		return false
	}
	info := s.di.art.Devices[dev].Info
	return info != nil && !info.SpacingExemptSameNet
}

// mayTouchIsolation reports whether a local device may legally connect to
// isolation (Figure 6b resistors).
func (s *pairEnv) mayTouchIsolation(dev int) bool {
	if dev < 0 {
		return false
	}
	info := s.di.art.Devices[dev].Info
	return info != nil && info.MayTouchIsolation
}

// violationDraft is a violation whose net names are not yet resolved: a
// definition-level draft carries local net classes, resolved to global
// names when the tally is instantiated.
type violationDraft struct {
	v          Violation
	aNet, bNet netlist.NetID
}

// interactionTally is the adjudicated result of a set of candidate pairs:
// in the engine, one definition's pairs under one net-environment
// signature, replayed for every instance that shares it.
type interactionTally struct {
	violations []violationDraft
	checks     int

	candidates, checked                                        int
	skippedNoRule, skippedSameNet, skippedRelated, skippedConn int
	downgrades                                                 int
}

// adjudicatePair runs the Figure 12 subcase logic for one candidate pair:
// device-dependent cross-symbol rules first (accidental transistors), then
// the same-net / different-net / related spacing subcases, with geometry
// asked only when the topology fails to excuse the pair. The relationship
// answers come from env and the memoized measurements from g, so the same
// logic — and therefore byte-identical reports — serves the engine's
// definition-level tallies and its root-frame patch.
func adjudicatePair(tc *tech.Technology, ct *tech.Compiled, opts Options, a, b *netlist.ConnItem, env *pairEnv, g *defPairGeom, t *interactionTally) {
	t.candidates++
	sameDevice := a.Dev >= 0 && a.Dev == b.Dev

	// Accidental transistor (Figure 8): poly over any diffusion-role layer
	// outside a single declared device. Implicit devices are not allowed.
	polyID, hasPoly := ct.Poly()
	if hasPoly && !sameDevice &&
		((a.Layer == polyID && ct.IsDiffusion(b.Layer)) || (ct.IsDiffusion(a.Layer) && b.Layer == polyID)) {
		if a.Bounds.Overlaps(b.Bounds) {
			t.checks++
			if ovb, ok := g.accOverlapBounds(a, b); ok {
				t.violations = append(t.violations, violationDraft{
					v: Violation{
						Rule:     "DEV.ACCIDENTAL",
						Severity: Error,
						Detail:   "poly crosses diffusion outside a transistor symbol (implicit devices are not allowed)",
						Where:    ovb,
						Path:     a.Path,
					},
					aNet: a.Net, bNet: b.Net,
				})
				return // the spacing cell would double-report this overlap
			}
		}
	}

	rule := ct.Rule(a.Layer, b.Layer)
	if rule.DiffNet == 0 && rule.SameNet == 0 {
		t.skippedNoRule++
		return
	}
	// Figure 5b: a resistor keeps its spacing checks even against
	// related or same-net elements — a short across the body changes
	// the circuit. Its own internal geometry (same device) is stage
	// 2's business, not an interaction.
	resException := !sameDevice &&
		(env.keepsSameNetSpacing(a.Dev) || env.keepsSameNetSpacing(b.Dev))
	isRelated := env.related(a, b)
	if !opts.NoExemptions {
		if rule.ExemptRelated && isRelated && !resException {
			t.skippedRelated++
			return
		}
	}
	if sameDevice {
		// Device-internal geometry is stage 2's business even under
		// the ablation; measuring a device against itself is
		// meaningless in any model.
		t.skippedRelated++
		return
	}

	sameNet := env.sameNet(a, b)
	need := rule.DiffNet
	if sameNet && !opts.NoExemptions {
		need = rule.SameNet
		if need == 0 && resException {
			need = rule.DiffNet
		}
		if need == 0 {
			t.skippedSameNet++
			return
		}
	}
	if need == 0 {
		t.skippedNoRule++
		return
	}

	// Figure 6b: devices that may legally touch isolation are exempt
	// from the base-isolation spacing cell.
	if isoID, hasIso := ct.Isolation(); hasIso && (a.Layer == isoID || b.Layer == isoID) {
		other := a
		if a.Layer == isoID {
			other = b
		}
		if env.mayTouchIsolation(other.Dev) {
			t.skippedRelated++
			return
		}
	}

	// Same-layer touching pairs were adjudicated by the connection
	// stage (legal skeletal connection or CONN.ILLEGAL); measuring
	// them again would double-report.
	if a.Layer == b.Layer && g.regOverlaps(a, b) {
		t.skippedConn++
		return
	}

	t.checked++
	t.checks++
	dist := g.dist(a, b)
	// A touching, related element under the resistor exception is the
	// legitimate connection into the resistor terminal, not a short.
	if resException && isRelated && dist == 0 {
		t.skippedRelated++
		return
	}
	if dist < float64(need) {
		severity := Error
		extra := ""
		if m := opts.ProcessSpacing; m != nil && dist > 0 {
			// Second opinion from the Eq. 1 process model: translate
			// by worst-case misalignment when the layers differ, then
			// require the printed images to keep the margin.
			mis := 0.0
			if a.Layer != b.Layer {
				mis = opts.Misalign
				if mis == 0 && tc.Lambda > 0 {
					mis = float64(tc.Lambda) / 2
				}
			}
			if g.processOK(a, b, mis, opts.ProcessMargin) {
				severity = Warning
				extra = " (process model predicts a safe printed gap; downgraded)"
				t.downgrades++
			}
		}
		sub := "diff"
		if sameNet {
			sub = "same"
		}
		la, lb := tc.Layer(a.Layer).CIF, tc.Layer(b.Layer).CIF
		if la > lb {
			la, lb = lb, la
		}
		t.violations = append(t.violations, violationDraft{
			v: Violation{
				Rule:     fmt.Sprintf("S.%s.%s.%s", la, lb, sub),
				Severity: severity,
				Detail: fmt.Sprintf("spacing %.0f < %d between %s and %s (%s net)%s",
					dist, need, tc.Layer(a.Layer).Name, tc.Layer(b.Layer).Name, sub, extra),
				Where: a.Bounds.Union(b.Bounds).Intersect(a.Bounds.Expand(need).Union(b.Bounds.Expand(need))),
				Path:  a.Path,
				Layer: a.Layer,
			},
			aNet: a.Net, bNet: b.Net,
		})
	}
}
