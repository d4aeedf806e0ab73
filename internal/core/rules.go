package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Stage "check layer rules": the deck's geometric rule classes beyond
// pairwise spacing — region width, island area, and the directed
// enclosure/overlap/extension margins — adjudicated once per composite
// symbol definition over its own merged geometry (calls excluded), the
// same once-per-definition economics as stages 1 and 2. Cross-layer rules
// therefore judge co-located geometry within one definition; interactions
// between different symbols remain the interaction stage's business.

// layerRuleChecks runs every layer rule of the technology over one composite
// definition, returning the violations (in symbol coordinates) and the
// number of rule kernels evaluated. Factored out of the pipeline loop so
// the incremental engine can cache the result per definition content hash;
// as with elementChecks, the violations carry no Symbol.
func layerRuleChecks(s *layout.Symbol, tc *tech.Technology) (vs []Violation, checks int) {
	if !tc.HasLayerRules() {
		return nil, 0
	}
	// Layer regions are shared across rules; materialize each at most once.
	n := tc.NumLayers()
	regs := make([]geom.Region, n)
	got := make([]bool, n)
	region := func(l tech.LayerID) geom.Region {
		if !got[l] {
			regs[l] = s.LayerRegion(l)
			got[l] = true
		}
		return regs[l]
	}
	for i := 0; i < n; i++ {
		l := tech.LayerID(i)
		w, a := tc.WidthMin(l), tc.AreaMin(l)
		if w <= 0 && a <= 0 {
			continue
		}
		reg := region(l)
		if reg.Empty() {
			continue
		}
		layer := tc.Layer(l)
		if w > 0 {
			checks++
			for _, r := range geom.WidthViolations(reg, w) {
				vs = append(vs, Violation{
					Rule:     "WIDTH." + layer.CIF,
					Severity: Error,
					Detail:   fmt.Sprintf("merged %s region narrower than %d", layer.Name, w),
					Where:    r, Layer: l,
				})
			}
		}
		if a > 0 {
			checks++
			for _, r := range geom.ComponentAreaViolations(reg, a) {
				vs = append(vs, Violation{
					Rule:     "AREA." + layer.CIF,
					Severity: Error,
					Detail:   fmt.Sprintf("%s island smaller than %d square centimicrons", layer.Name, a),
					Where:    r, Layer: l,
				})
			}
		}
	}
	for _, cr := range tc.CrossRules() {
		la, lb := tc.Layer(cr.A), tc.Layer(cr.B)
		switch cr.Kind {
		case tech.CrossEnclose:
			inner := region(cr.B)
			if inner.Empty() {
				continue
			}
			checks++
			for _, r := range geom.EncloseViolations(inner, region(cr.A), cr.Margin) {
				vs = append(vs, Violation{
					Rule:     "ENC." + la.CIF + "." + lb.CIF,
					Severity: Error,
					Detail:   fmt.Sprintf("%s not enclosed by %s by %d", lb.Name, la.Name, cr.Margin),
					Where:    r, Layer: cr.B,
				})
			}
		case tech.CrossOverlap:
			a, b := region(cr.A), region(cr.B)
			if a.Empty() || b.Empty() {
				continue
			}
			checks++
			for _, r := range geom.OverlapViolations(a, b, cr.Margin) {
				vs = append(vs, Violation{
					Rule:     "OVL." + la.CIF + "." + lb.CIF,
					Severity: Error,
					Detail:   fmt.Sprintf("%s-%s overlap narrower than %d", la.Name, lb.Name, cr.Margin),
					Where:    r, Layer: cr.A,
				})
			}
		case tech.CrossExtend:
			a, b := region(cr.A), region(cr.B)
			if a.Empty() || b.Empty() {
				continue
			}
			checks++
			for _, r := range geom.ExtendViolations(a, b, cr.Margin) {
				vs = append(vs, Violation{
					Rule:     "EXT." + la.CIF + "." + lb.CIF,
					Severity: Error,
					Detail:   fmt.Sprintf("%s extends less than %d past %s", la.Name, cr.Margin, lb.Name),
					Where:    r, Layer: cr.A,
				})
			}
		}
	}
	return vs, checks
}
