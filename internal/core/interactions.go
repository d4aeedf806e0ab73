package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// pairEnv answers the net/device relationship questions of the Figure 12
// subcases for one candidate pair. The engine implements it over a symbol
// definition's local net classes plus a per-instance merge signature
// (sigEnv) and, for the root frame, over global nets directly (directEnv);
// the tests' chip-level reference implements it over the flat netlist. All
// must answer identically for the same chip state, which is what makes
// definition-level adjudication caching sound.
type pairEnv interface {
	// sameNet reports whether the items are on the same electrical net.
	sameNet(a, b *netlist.ConnItem) bool
	// related reports whether the items are related through a device.
	related(a, b *netlist.ConnItem) bool
	// keepsSameNetSpacing reports whether the item's device demands
	// spacing checks even on its own net (resistors, Figure 5b).
	keepsSameNetSpacing(dev int) bool
	// mayTouchIsolation reports whether the item's device may legally
	// connect to isolation (Figure 6b resistors).
	mayTouchIsolation(dev int) bool
}

// pairGeom supplies the geometric measurements of pair adjudication. The
// engine memoizes them per definition pair (they are invariant under the
// Manhattan instance transforms); the tests' chip-level reference computes
// them directly.
type pairGeom interface {
	// accOverlapBounds returns the bounding box of the region overlap
	// (the accidental-transistor check), and whether it is non-empty.
	accOverlapBounds(a, b *netlist.ConnItem) (geom.Rect, bool)
	// regOverlaps reports whether the regions overlap (same-layer pairs).
	regOverlaps(a, b *netlist.ConnItem) bool
	// dist returns the spacing under the configured metric.
	dist(a, b *netlist.ConnItem) float64
	// processOK asks the Eq. 1 process model whether the printed images
	// keep the margin under worst-case misalignment mis.
	processOK(a, b *netlist.ConnItem, mis, margin float64) bool
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
// answers come from env and the measurements from g, so the same logic —
// and therefore byte-identical reports — serves the engine's
// definition-level replay, its root-frame patch, and the tests'
// chip-level reference sweep.
func adjudicatePair(tc *tech.Technology, ct *tech.Compiled, opts Options, a, b *netlist.ConnItem, env pairEnv, g pairGeom, t *interactionTally) {
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
