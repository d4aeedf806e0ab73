// Package flat implements the traditional mask-level design rule checker
// the paper argues against — the baseline for every comparison experiment.
//
// It does what 1980-era production checkers did: fully instantiate the
// chip, union each mask layer, and check geometry with no topological or
// device information whatsoever:
//
//   - width by shrink-expand-compare on the unioned masks (orthogonal by
//     default; the Euclidean variant reproduces the Figure 4 corner
//     pathology),
//   - spacing by expand-check-overlap between connected components in the
//     L∞ metric (the Figure 4 corner-to-edge pathology),
//   - "no contact over gate" as the mask rule cut∩poly∩diffusion — which
//     falsely flags every legal butting contact (Figure 7),
//   - poly-diffusion crossings are assumed to be intentional transistors
//     and silently accepted — which misses every accidental transistor
//     (Figure 8) and every missing gate overlap,
//   - no netlist: electrical equivalence (Figure 5), power-ground shorts,
//     and all construction rules are invisible to it.
package flat

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Metric selects the spacing/width geometry model.
type Metric uint8

// Metrics.
const (
	Orthogonal Metric = iota
	Euclidean
)

// Options configures the baseline.
type Options struct {
	// Metric for spacing checks (default Orthogonal, the traditional
	// expand-check-overlap).
	Metric Metric
	// EuclideanSECWidth turns on the Euclidean shrink-expand-compare width
	// check, which flags every convex corner (Figure 4); the default
	// orthogonal variant is exact.
	EuclideanSECWidth bool
}

// Violation is one baseline finding. Rules are FLAT.W.<layer>,
// FLAT.S.<layer>, FLAT.GATECONTACT.
type Violation struct {
	Rule   string
	Detail string
	Where  geom.Rect
	Layer  tech.LayerID
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %v: %s", v.Rule, v.Where, v.Detail)
}

// Report is the baseline's output.
type Report struct {
	Violations []Violation
	Duration   time.Duration
	FlatElems  int
	Components int
}

// Check runs the traditional checker.
func Check(d *layout.Design, tc *tech.Technology, opts Options) (*Report, error) {
	start := time.Now()
	regions, err := d.FlatLayerRegions(tc.NumLayers())
	if err != nil {
		return nil, err
	}
	rep := &Report{FlatElems: d.Stats().FlatElements}

	// Width on the unioned masks.
	for _, l := range tc.Layers() {
		if l.MinWidth <= 0 || regions[l.ID].Empty() {
			continue
		}
		if opts.EuclideanSECWidth {
			for _, w := range euclideanSECFlags(regions[l.ID], l.MinWidth) {
				rep.Violations = append(rep.Violations, Violation{
					Rule:   "FLAT.W." + l.CIF,
					Detail: fmt.Sprintf("%s width below %d (Euclidean SEC)", l.Name, l.MinWidth),
					Where:  w, Layer: l.ID,
				})
			}
			continue
		}
		for _, w := range geom.WidthViolations(regions[l.ID], l.MinWidth) {
			rep.Violations = append(rep.Violations, Violation{
				Rule:   "FLAT.W." + l.CIF,
				Detail: fmt.Sprintf("%s width below %d", l.Name, l.MinWidth),
				Where:  w, Layer: l.ID,
			})
		}
	}

	// Spacing between connected components, per layer, no net knowledge.
	for _, l := range tc.Layers() {
		if l.MinSpace <= 0 || regions[l.ID].Empty() {
			continue
		}
		comps := regions[l.ID].Components()
		rep.Components += len(comps)
		var pf geom.PairFinder
		for i := range comps {
			pf.AddRect(i, comps[i].Bounds(), 0)
		}
		pf.Pairs(l.MinSpace, nil, func(p geom.Pair) {
			a, b := comps[p.A.ID], comps[p.B.ID]
			var violated bool
			var dist float64
			if opts.Metric == Euclidean {
				dist, _, _ = geom.RegionDist(a, b)
				violated = dist < float64(l.MinSpace)
			} else {
				od := geom.RegionOrthoDist(a, b)
				dist = float64(od)
				violated = od < l.MinSpace
			}
			if violated {
				rep.Violations = append(rep.Violations, Violation{
					Rule:   "FLAT.S." + l.CIF,
					Detail: fmt.Sprintf("%s spacing %.0f < %d", l.Name, dist, l.MinSpace),
					Where:  p.A.Box.Union(p.B.Box),
					Layer:  l.ID,
				})
			}
		})
	}

	// Mask-level "no contact over gate": flags every butting contact.
	rep.Violations = append(rep.Violations, gateContactFlags(regions, tc)...)

	rep.Duration = time.Since(start)
	return rep, nil
}

// gateContactFlags implements the naive cut∩poly∩diffusion rule. Layers
// resolve through the technology's roles, so the rule covers any
// process with gate and diffusion material — both polarities in CMOS.
func gateContactFlags(regions []geom.Region, tc *tech.Technology) []Violation {
	polyID, okP := tc.Poly()
	cutID, okC := tc.Cut()
	if !okP || !okC || !tc.HasDiffusion() {
		return nil
	}
	var diffRegs []geom.Region
	for _, l := range tc.Layers() {
		if tc.IsDiffusion(l.ID) {
			diffRegs = append(diffRegs, regions[l.ID])
		}
	}
	diff := geom.BulkUnion(diffRegs)
	gate := regions[polyID].Intersect(diff)
	if gate.Empty() {
		return nil
	}
	hit := regions[cutID].Intersect(gate)
	if hit.Empty() {
		return nil
	}
	var out []Violation
	for _, comp := range hit.Components() {
		out = append(out, Violation{
			Rule:   "FLAT.GATECONTACT",
			Detail: "contact cut over poly∩diffusion (mask rule; flags legal butting contacts)",
			Where:  comp.Bounds(),
			Layer:  cutID,
		})
	}
	return out
}

// euclideanSECFlags models the Euclidean shrink-expand-compare width
// check: beyond genuine violations it flags every convex corner, because
// disk dilation cannot restore the corners disk erosion preserves
// (Figure 4 left). Genuine violations are computed orthogonally; corner
// flags are h×h squares at each convex contour corner.
func euclideanSECFlags(r geom.Region, w int64) []geom.Rect {
	out := geom.WidthViolations(r, w)
	h := w / 2
	for _, loop := range r.Contours() {
		n := len(loop)
		for i := 0; i < n; i++ {
			a, b, c := loop[i], loop[(i+1)%n], loop[(i+2)%n]
			if b.Sub(a).Cross(c.Sub(b)) <= 0 {
				continue // not convex
			}
			// Corner square extends inward. With the interior on the left
			// of the walk, inward is the sum of the left-normals of the
			// incoming and outgoing edges.
			din := b.Sub(a)
			dout := c.Sub(b)
			ix := sign(-din.Y - dout.Y)
			iy := sign(din.X + dout.X)
			out = append(out, geom.R(b.X, b.Y, b.X+ix*h, b.Y+iy*h))
		}
	}
	return out
}

func sign(v int64) int64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
