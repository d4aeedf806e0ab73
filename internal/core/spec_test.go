package core

// The executable specification of the paper's net, connection and
// interaction checks, for small designs only. It shares nothing with the
// engine but the device analyzers, region kernels and rule table: items come
// from a plain walk of the instance tree, nets from a naive union-find over
// all pairs, and each pair is adjudicated by Figure 12's subcase table and
// measured directly. oracle_test.go holds the engine to it.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// specItem is one piece of instantiated geometry: an interconnect element,
// a device terminal, device support geometry (on no net), or a keepout.
type specItem struct {
	layer     tech.LayerID
	reg       geom.Region
	box       geom.Rect
	path      string
	dev, node int    // device index (-1: interconnect) and terminal node
	term      string // a terminal's device placement and name
	net, elem bool   // on a net; an interconnect element
	clear     int64  // a base keepout's clearance
}

// pairFacts are the inputs of Figure 12's table for one pair of items.
type pairFacts struct {
	sameDev, sameNet, related bool
	resistor                  bool // a device of the pair keeps same-net spacing (Figure 5b)
	isoTie                    bool // the non-isolation item's device may touch isolation (Figure 6b)
	connection                bool // one layer, overlapping: the connection check's business
	touching                  bool // distance 0
}

// figure12 is the paper's interaction subcase table for one pair: the first
// row whose condition holds gives the spacing the pair must keep, 0 when it
// is excused.
func figure12(rule *tech.SpacingRule, f pairFacts, noExemptions bool) int64 {
	for _, row := range []struct {
		when bool
		need int64
	}{
		{f.sameDev, 0},    // a device's own geometry is checked with the device
		{f.isoTie, 0},     // Figure 6b: a legal tie to isolation
		{f.connection, 0}, // legal or illegal, a connection is not a spacing
		{f.resistor && f.related && f.touching, 0},          // the wire into a resistor terminal
		{noExemptions, rule.DiffNet},                        // ablation: every pair unrelated
		{rule.ExemptRelated && f.related && !f.resistor, 0}, // related through a device
		{f.sameNet && rule.SameNet > 0, rule.SameNet},       // same net, its own rule
		{f.sameNet && f.resistor, rule.DiffNet},             // Figure 5b: a short across a resistor
		{f.sameNet, 0},                                      // Figure 5a: electrically equivalent
		{true, rule.DiffNet},
	} {
		if row.when {
			return row.need
		}
	}
	return 0
}

// specReport is the spec's verdict: the violations of the families it
// decides, their Nets holding net signatures, and one signature per net.
type specReport struct {
	violations []Violation
	nets       []string
}

// specCheck runs the specification on a design.
func specCheck(d *layout.Design, tc *tech.Technology, opts Options) (rep specReport) {
	var items, gates, bases []specItem
	var devs []*device.Info
	analyzed := map[*layout.Symbol]*device.Info{}
	var walk func(s *layout.Symbol, t geom.Transform, path string)
	walk = func(s *layout.Symbol, t geom.Transform, path string) {
		item := func(l tech.LayerID, r geom.Region, dev int, net bool) specItem {
			r = r.TransformBy(t)
			return specItem{layer: l, reg: r, box: r.Bounds(), path: path, dev: dev, node: -1, net: net, elem: net && dev < 0}
		}
		if !s.IsPrimitive() {
			for _, e := range s.Elements {
				if r, err := e.Region(); err == nil {
					items = append(items, item(e.Layer, r, -1, true))
				}
			}
			for _, c := range s.Calls {
				sub := c.Name
				if path != "" {
					sub = path + "." + c.Name
				}
				walk(c.Target, c.T.Compose(t), sub)
			}
			return
		}
		if _, ok := analyzed[s]; !ok {
			analyzed[s], _ = device.Analyze(s, tc)
		}
		info := analyzed[s]
		if info == nil {
			return
		}
		cover := map[tech.LayerID]geom.Region{}
		for _, term := range info.Terminals {
			if cover[term.Layer] = cover[term.Layer].Union(term.Reg); !term.Reg.Empty() {
				items = append(items, item(term.Layer, term.Reg, len(devs), true))
				items[len(items)-1].node, items[len(items)-1].term = term.Node, fmt.Sprint(path, "@", t, ":", term.Name)
			}
		}
		// What the terminals leave of each layer is support geometry: cuts,
		// implants, a channel, a resistor's body.
		for _, l := range tc.Layers() {
			if r := s.LayerRegion(l.ID).Subtract(cover[l.ID]); !r.Empty() {
				items = append(items, item(l.ID, r, len(devs), false))
			}
		}
		if !info.Gate.Empty() {
			gates = append(gates, item(0, info.Gate, len(devs), false))
		}
		if !info.BaseKeepout.Empty() {
			bases = append(bases, item(0, info.BaseKeepout, len(devs), false))
			bases[len(bases)-1].clear = info.BaseClearance
		}
		devs = append(devs, info)
	}
	walk(d.Top, geom.Identity, "")

	// Nets: a device fuses its terminals by node, and two overlapping pieces
	// on one layer join when their skeletons connect (Figure 11).
	parent := make([]int, len(items))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var touching [][2]int
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			a, b := &items[i], &items[j]
			switch w := tc.Layer(a.layer).MinWidth; {
			case !a.net || !b.net:
			case a.node >= 0 && a.dev == b.dev && a.node == b.node:
				parent[find(i)] = find(j)
			case a.layer != b.layer || !a.reg.Overlaps(b.reg):
			case geom.SkeletonsConnected(geom.Skeleton(a.reg, w), geom.Skeleton(b.reg, w)):
				parent[find(i)] = find(j)
			default:
				touching = append(touching, [2]int{i, j})
			}
		}
	}
	class := func(i int) int { // -1: on no net
		if !items[i].net {
			return -1
		}
		return find(i)
	}

	// A net is known by its bounds, elements and device terminals, so the
	// engine's nets match these however either side numbers them. on holds
	// (net, device) for every device with a terminal on the net.
	bounds, elems, terms, sig := map[int]geom.Rect{}, map[int]int{}, map[int][]string{}, map[int]string{}
	on, devsOn, seen := map[[2]int]bool{}, map[int][]int{}, map[string]bool{}
	for i, it := range items {
		if cl := class(i); cl >= 0 {
			bounds[cl] = bounds[cl].Union(it.box)
			if it.elem {
				elems[cl]++
			}
			if it.term != "" && !seen[it.term] { // a device's first terminal of each name
				seen[it.term], on[[2]int{cl, it.dev}] = true, true
				devsOn[cl] = append(devsOn[cl], it.dev)
				terms[cl] = append(terms[cl], it.term)
			}
		}
	}
	for cl := range bounds {
		sig[cl] = netSignature(bounds[cl], elems[cl], terms[cl])
		rep.nets = append(rep.nets, sig[cl])
	}
	nets := func(i, j int) (out []string) {
		for _, k := range []int{i, j} {
			if class(k) >= 0 {
				out = append(out, sig[class(k)])
			}
		}
		return out
	}
	add := func(v Violation) { rep.violations = append(rep.violations, v) }
	for _, p := range touching {
		if a, b := &items[p[0]], &items[p[1]]; class(p[0]) != class(p[1]) {
			add(Violation{Rule: "CONN.ILLEGAL", Severity: Error, Where: a.box.Intersect(b.box), Path: a.path, Layer: a.layer, Nets: nets(p[0], p[1]),
				Detail: tc.Layer(a.layer).Name + " elements touch without skeletal connection (butting or shallow overlap; overlap by at least the minimum width instead)"})
		}
	}

	// Related: one device's, on a net the other's device has a terminal on,
	// or on two nets that meet at a device.
	related := func(i, j int) bool {
		a, b := &items[i], &items[j]
		if a.dev >= 0 && a.dev == b.dev || on[[2]int{class(j), a.dev}] || on[[2]int{class(i), b.dev}] {
			return true
		}
		for _, dv := range devsOn[class(i)] {
			if on[[2]int{class(j), dv}] {
				return true
			}
		}
		return false
	}
	resistor := func(dev int) bool { return dev >= 0 && !devs[dev].SpacingExemptSameNet }
	mayTouchIso := func(dev int) bool { return dev >= 0 && devs[dev].MayTouchIsolation }
	euclid := func(a, b geom.Region) float64 { d, _, _ := geom.RegionDist(a, b); return d }
	polyID, hasPoly := tc.Poly()
	isoID, hasIso := tc.Isolation()
	cutID, hasCut := tc.Cut()
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			a, b := &items[i], &items[j]
			sameDev := a.dev >= 0 && a.dev == b.dev
			// Figure 8: poly over diffusion outside one declared device is an
			// implicit transistor.
			if hasPoly && !sameDev && (a.layer == polyID && tc.IsDiffusion(b.layer) || tc.IsDiffusion(a.layer) && b.layer == polyID) {
				if ov := a.reg.Intersect(b.reg); !ov.Empty() {
					add(Violation{Rule: "DEV.ACCIDENTAL", Severity: Error, Where: ov.Bounds(), Path: a.path, Nets: nets(i, j),
						Detail: "poly crosses diffusion outside a transistor symbol (implicit devices are not allowed)"})
					continue
				}
			}
			rule := tc.Rule(a.layer, b.layer)
			if reach := max(rule.DiffNet, rule.SameNet); reach == 0 || !a.box.Expand(reach).Touches(b.box) {
				continue // farther apart than any rule of the pair reaches
			}
			dist := euclid(a.reg, b.reg)
			if opts.Metric == Orthogonal {
				dist = float64(geom.RegionOrthoDist(a.reg, b.reg))
			}
			f := pairFacts{sameDev: sameDev, sameNet: class(i) >= 0 && class(i) == class(j), related: related(i, j),
				resistor: resistor(a.dev) || resistor(b.dev), connection: a.layer == b.layer && a.reg.Overlaps(b.reg), touching: dist == 0,
				isoTie: hasIso && (a.layer == isoID && mayTouchIso(b.dev) || a.layer != isoID && b.layer == isoID && mayTouchIso(a.dev))}
			need := figure12(rule, f, opts.NoExemptions)
			if need == 0 || dist >= float64(need) {
				continue
			}
			severity, extra, mis := Error, "", 0.0 // Eq. 1: a cross-layer pair shifts by the worst misalignment
			if a.layer != b.layer {
				mis = float64(tc.Lambda) / 2
			}
			if m := opts.ProcessSpacing; m != nil && dist > 0 && m.SpacingOK(a.reg, b.reg, mis, opts.ProcessMargin) {
				severity, extra = Warning, " (process model predicts a safe printed gap; downgraded)"
			}
			sub, la, lb := "diff", tc.Layer(a.layer), tc.Layer(b.layer)
			if f.sameNet {
				sub = "same"
			}
			add(Violation{Rule: fmt.Sprintf("S.%s.%s.%s", min(la.CIF, lb.CIF), max(la.CIF, lb.CIF), sub), Severity: severity,
				Detail: fmt.Sprintf("spacing %.0f < %d between %s and %s (%s net)%s", dist, need, la.Name, lb.Name, sub, extra),
				Where:  a.box.Union(b.box).Intersect(a.box.Expand(need).Union(b.box.Expand(need))), Path: a.path, Layer: a.layer, Nets: nets(i, j)})
		}
	}

	// Keepouts: no contact cut on another device's gate (Figure 7), no
	// isolation within a bipolar base's clearance (Figure 6a).
	for _, it := range items {
		for _, g := range gates {
			if hasCut && it.layer == cutID && it.dev != g.dev && it.reg.Overlaps(g.reg) {
				add(Violation{Rule: "DEV.GATE.CONTACT", Severity: Error, Where: it.reg.Intersect(g.reg).Bounds(), Path: it.path,
					Detail: "contact cut over the active gate of a transistor (Figure 7)"})
			}
		}
		for _, k := range bases {
			if hasIso && it.layer == isoID && it.dev != k.dev && (euclid(it.reg, k.reg) < float64(k.clear) || k.clear == 0 && it.reg.Overlaps(k.reg)) {
				add(Violation{Rule: "DEV.NPN.ISO", Severity: Error, Where: it.box.Intersect(k.box.Expand(k.clear)), Path: k.path,
					Detail: "isolation touches or approaches a transistor base (Figure 6a)"})
			}
		}
	}
	return rep
}

// netSignature identifies a net by its bounds, element count and device
// terminals.
func netSignature(bounds geom.Rect, elements int, terms []string) string {
	sort.Strings(terms)
	return fmt.Sprintf("%v/%d/%s", bounds, elements, strings.Join(terms, ","))
}
