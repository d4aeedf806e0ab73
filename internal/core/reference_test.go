package core

// The reference pipeline: the six stages as plain loops over the whole
// design and one plane sweep over the flat item array of the fully
// instantiated chip. It shares adjudicatePair, elementChecks and
// layerRuleChecks with the engine but none of the engine's decomposition —
// no content hashes, no per-definition caches, no signatures, no replay —
// which is what makes it the oracle the parity tests compare the engine
// against (TestEngineMatchesCheck and friends).

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// referenceCheck runs the serial chip-level pipeline on a design: every
// stage loops over the whole design, and stages 4-6 read one flat item
// array for the fully instantiated chip.
func referenceCheck(d *layout.Design, tc *tech.Technology, opts Options) (*Report, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Design: d, Tech: tc}
	c := &checker{design: d, tech: tc, ct: tc.Compile(), opts: opts, rep: rep}

	c.stage("check elements", c.checkElements)
	c.stage("check primitive symbols", c.checkPrimitiveSymbols)
	c.stage("check layer rules", c.checkLayerRules)
	// Stages 4-6 share the extraction artifacts. The flat items come from a
	// materialized (non-virtual) incremental extraction, whose equality with
	// the netlist package's own flat reference walk is locked there by
	// TestIncrementalMatchesFull.
	var ex *netlist.Extraction
	c.stage("generate hierarchical net list", func() {
		inc, issues, err := netlist.ExtractIncremental(d, tc, netlist.NewCache(), nil)
		if err != nil {
			c.add(Violation{Rule: "STRUCT.EXTRACT", Severity: Error, Detail: err.Error()})
			return
		}
		ex = inc.Extraction
		rep.Netlist = ex.Netlist
		for _, is := range issues {
			c.add(Violation{Rule: is.Rule, Severity: Warning, Detail: is.Detail, Where: is.Where})
		}
	})
	if ex != nil {
		c.stage("check legal connections", func() { c.checkConnections(ex) })
		if !opts.SkipInteractions {
			c.stage("check interactions", func() { c.checkInteractions(ex) })
		}
		if !opts.SkipConstruction {
			c.stage("check construction rules", func() {
				for _, is := range netlist.ConstructionRules(ex.Netlist, tc) {
					c.add(Violation{Rule: is.Rule, Severity: Error, Detail: is.Detail, Where: is.Where})
				}
			})
		}
		if opts.Reference != nil {
			c.stage("check netlist reference", func() {
				for _, is := range netlist.Compare(ex.Netlist, opts.Reference) {
					c.add(Violation{Rule: is.Rule, Severity: Error, Detail: is.Detail, Where: is.Where})
				}
			})
		}
	}
	sortViolations(rep.Violations)
	return rep, nil
}

// checkElements is pipeline stage 1: interconnect width, checked in the
// symbol definition, not in each instance — "this is done in the symbol
// definition, not in each instance of a symbol".
func (c *checker) checkElements() {
	for _, s := range c.design.SortedSymbols() {
		if s.IsPrimitive() {
			continue // device geometry is stage 2's business
		}
		vs, checks, elements := elementChecks(s, c.tech)
		c.rep.Stats.ElementsChecked += elements
		if c.curStage != nil {
			c.curStage.Checks += checks
		}
		for _, v := range vs {
			c.add(v)
		}
	}
}

// checkPrimitiveSymbols is stage 2: device-internal rules, once per
// definition. Devices marked CHK are exempt (their Analyze already
// suppresses problems).
func (c *checker) checkPrimitiveSymbols() {
	for _, s := range c.design.SortedSymbols() {
		if !s.IsPrimitive() {
			continue
		}
		c.rep.Stats.SymbolDefsChecked++
		c.countCheck()
		_, probs := device.Analyze(s, c.tech)
		for _, v := range deviceProblemViolations(s, probs) {
			c.add(v)
		}
	}
}

// checkLayerRules walks every composite definition through the compiled
// layer rules.
func (c *checker) checkLayerRules() {
	for _, s := range c.design.SortedSymbols() {
		if s.IsPrimitive() {
			continue // device geometry is stage 2's business
		}
		vs, checks := layerRuleChecks(s, c.tech, c.ct)
		if c.curStage != nil {
			c.curStage.Checks += checks
		}
		for _, v := range vs {
			c.add(v)
		}
	}
}

// checkConnections is stage 3: same-layer element pairs that touch without
// being skeletally connected are illegal connections (Figures 11/15); the
// extractor has already enumerated them.
func (c *checker) checkConnections(ex *netlist.Extraction) {
	c.rep.Stats.DeviceInstances = len(ex.Netlist.Devices)
	for _, pair := range ex.IllegalPairs {
		a, b := ex.Items[pair[0]], ex.Items[pair[1]]
		c.countCheck()
		layer := c.tech.Layer(a.Layer)
		c.add(Violation{
			Rule:     "CONN.ILLEGAL",
			Severity: Error,
			Detail: fmt.Sprintf("%s elements touch without skeletal connection (butting or shallow overlap; overlap by at least the minimum width instead)",
				layer.Name),
			Where: a.Bounds.Intersect(b.Bounds),
			Path:  a.Path,
			Layer: a.Layer,
			Nets:  c.netNames(ex, a.Net, b.Net),
		})
	}
}

// interactionChecker is the chip-level pairEnv/pairGeom: it answers the
// Figure 12 relationship questions straight from the global netlist and
// measures every pair directly, with no memoization.
type interactionChecker struct {
	c  *checker
	ex *netlist.Extraction
	tc *tech.Technology
	ct *tech.Compiled

	// Terminal-net sets per device: an element is "related" to a device
	// when it shares a net with one of the device's terminals (the paper:
	// "the subcases depend on whether or not the elements are related").
	devNets []map[netlist.NetID]bool
	netDevs map[netlist.NetID]map[int]bool
}

func newInteractionChecker(c *checker, ex *netlist.Extraction) *interactionChecker {
	ic := &interactionChecker{c: c, ex: ex, tc: c.tech, ct: c.ct}

	ic.devNets = make([]map[netlist.NetID]bool, len(ex.Netlist.Devices))
	ic.netDevs = make(map[netlist.NetID]map[int]bool)
	for di := range ex.Netlist.Devices {
		tns := ex.Netlist.Devices[di].TerminalNets
		set := make(map[netlist.NetID]bool, len(tns))
		for ti := range tns {
			nid := tns[ti].Net
			set[nid] = true
			if ic.netDevs[nid] == nil {
				ic.netDevs[nid] = make(map[int]bool)
			}
			ic.netDevs[nid][di] = true
		}
		ic.devNets[di] = set
	}
	return ic
}

// sameNet implements pairEnv over global nets.
func (ic *interactionChecker) sameNet(a, b *netlist.ConnItem) bool {
	return a.Net != netlist.NoNet && a.Net == b.Net
}

// related reports whether the two items are related through a device.
func (ic *interactionChecker) related(a, b *netlist.ConnItem) bool {
	if a.Dev >= 0 && a.Dev == b.Dev {
		return true
	}
	if a.Dev >= 0 && b.Net != netlist.NoNet && ic.devNets[a.Dev][b.Net] {
		return true
	}
	if b.Dev >= 0 && a.Net != netlist.NoNet && ic.devNets[b.Dev][a.Net] {
		return true
	}
	// Two interconnect elements whose nets meet at a common device are
	// related through it — e.g. the source and drain feed wires of one
	// transistor, whose separation is the channel, not a spacing rule.
	if a.Net != netlist.NoNet && b.Net != netlist.NoNet {
		da, db := ic.netDevs[a.Net], ic.netDevs[b.Net]
		if len(da) > len(db) {
			da, db = db, da
		}
		for di := range da {
			if db[di] {
				return true
			}
		}
	}
	return false
}

// keepsSameNetSpacing implements pairEnv over the global device table.
func (ic *interactionChecker) keepsSameNetSpacing(dev int) bool {
	if dev < 0 {
		return false
	}
	info := ic.ex.Netlist.Devices[dev].Info
	return info != nil && !info.SpacingExemptSameNet
}

// mayTouchIsolation implements pairEnv over the global device table.
func (ic *interactionChecker) mayTouchIsolation(dev int) bool {
	if dev < 0 {
		return false
	}
	info := ic.ex.Netlist.Devices[dev].Info
	return info != nil && info.MayTouchIsolation
}

// accOverlapBounds implements pairGeom directly. The violation geometry
// is only ever a bounding box, so the overlap region is never built:
// IntersectBounds walks the two span structures and accumulates the tight
// bbox with zero allocation.
func (ic *interactionChecker) accOverlapBounds(a, b *netlist.ConnItem) (geom.Rect, bool) {
	return geom.IntersectBounds(a.Reg, b.Reg)
}

func (ic *interactionChecker) regOverlaps(a, b *netlist.ConnItem) bool {
	return a.Reg.Overlaps(b.Reg)
}

func (ic *interactionChecker) dist(a, b *netlist.ConnItem) float64 {
	if ic.c.opts.Metric == Orthogonal {
		return float64(geom.RegionOrthoDist(a.Reg, b.Reg))
	}
	d, _, _ := geom.RegionDist(a.Reg, b.Reg)
	return d
}

func (ic *interactionChecker) processOK(a, b *netlist.ConnItem, mis, margin float64) bool {
	return ic.c.opts.ProcessSpacing.SpacingOK(a.Reg, b.Reg, mis, margin)
}

// pair adjudicates one candidate interaction from the sweep.
func (ic *interactionChecker) pair(p geom.Pair, t *interactionTally) {
	a := &ic.ex.Items[p.A.ID]
	b := &ic.ex.Items[p.B.ID]
	adjudicatePair(ic.tc, ic.ct, ic.c.opts, a, b, ic, ic, t)
}

// absorb folds the sweep's tally into the report, resolving net names
// against the global netlist.
func (c *checker) absorb(ex *netlist.Extraction, t *interactionTally) {
	st := &c.rep.Stats
	st.InteractionCandidates += t.candidates
	st.InteractionChecked += t.checked
	st.SkippedNoRule += t.skippedNoRule
	st.SkippedSameNetExempt += t.skippedSameNet
	st.SkippedRelated += t.skippedRelated
	st.SkippedConnectionPairs += t.skippedConn
	st.ProcessDowngrades += t.downgrades
	if c.curStage != nil {
		c.curStage.Checks += t.checks
	}
	for _, d := range t.violations {
		v := d.v
		v.Nets = c.netNames(ex, d.aNet, d.bNet)
		c.rep.Violations = append(c.rep.Violations, v)
	}
}

// checkInteractions is pipeline stage 5: everything that remains after
// element, symbol, and connection checking is spacing between elements
// and/or primitive symbols, enumerated by the upper-triangular interaction
// matrix of Figure 12 with its same-net / different-net / device-related
// subcases — plus the device-dependent cross-symbol rules: accidental
// transistors (Figure 8), contacts over gates (Figure 7), and bipolar base
// versus isolation (Figure 6).
//
// Pairs are adjudicated in canonical orientation (lower item index first —
// i.e. chip walk order), so the violation fields that depend on which item
// is "a" are independent of sweep discovery order.
func (c *checker) checkInteractions(ex *netlist.Extraction) {
	maxGap := c.ct.MaxSpacing()

	var pf geom.PairFinder
	for i := range ex.Items {
		pf.AddRect(i, ex.Items[i].Bounds, int(ex.Items[i].Layer))
	}

	ic := newInteractionChecker(c, ex)
	// The compiled interacts-with sets gate the sweep: a pair whose layers
	// carry no spacing cell and no device rule can never produce a check
	// or a violation, so it is dropped before bucketing instead of walking
	// the whole adjudication preamble per pair. The engine's per-definition
	// enumeration applies the identical predicate, keeping reports and
	// candidate counters byte-identical between the two pipelines.
	filter := func(a, b geom.Item) bool { return c.ct.InteractsTag(a.Tag, b.Tag) }
	canon := func(p geom.Pair) geom.Pair {
		if p.B.ID < p.A.ID {
			p.A, p.B = p.B, p.A
		}
		return p
	}
	var t interactionTally
	pf.Pairs(maxGap, filter, func(p geom.Pair) { ic.pair(canon(p), &t) })
	c.absorb(ex, &t)

	// Contact cuts over gates, cross-symbol (Figure 7): a cut from any
	// OTHER device or interconnect must not land on a transistor channel.
	c.checkGateKeepouts(ex)
	// Bipolar base vs isolation, cross-symbol (Figure 6a).
	c.checkBaseKeepouts(ex)
}

// checkGateKeepouts flags contact cuts overlapping MOS channels of other
// devices.
func (c *checker) checkGateKeepouts(ex *netlist.Extraction) {
	if len(ex.Gates) == 0 {
		return
	}
	cutID, ok := c.ct.Cut()
	if !ok {
		return
	}
	var pf geom.PairFinder
	for i := range ex.Items {
		if ex.Items[i].Layer == cutID {
			pf.AddRect(i, ex.Items[i].Bounds, 0)
		}
	}
	n := pf.Len()
	for gi := range ex.Gates {
		pf.AddRect(len(ex.Items)+gi, ex.Gates[gi].Bounds, 1)
	}
	if n == 0 {
		return
	}
	pf.Pairs(0, func(a, b geom.Item) bool { return a.Tag != b.Tag }, func(p geom.Pair) {
		cutItem, gateItem := p.A, p.B
		if cutItem.Tag == 1 {
			cutItem, gateItem = gateItem, cutItem
		}
		item := &ex.Items[cutItem.ID]
		gate := &ex.Gates[gateItem.ID-len(ex.Items)]
		if item.Dev == gate.Dev {
			return // in-symbol case handled by stage 2
		}
		c.countCheck()
		if ovb, ok := geom.IntersectBounds(item.Reg, gate.Reg); ok {
			c.add(Violation{
				Rule:     "DEV.GATE.CONTACT",
				Severity: Error,
				Detail:   "contact cut over the active gate of a transistor (Figure 7)",
				Where:    ovb,
				Path:     item.Path,
			})
		}
	})
}

// checkBaseKeepouts flags isolation geometry approaching a bipolar
// transistor base (Figure 6a), from any other symbol or interconnect. The
// candidates come from the plane sweep with the largest keepout clearance
// as the gap, not an O(keepouts × items) scan.
func (c *checker) checkBaseKeepouts(ex *netlist.Extraction) {
	if len(ex.BaseKeepouts) == 0 {
		return
	}
	isoID, ok := c.ct.Isolation()
	if !ok {
		return
	}
	var pf geom.PairFinder
	for i := range ex.Items {
		if ex.Items[i].Layer == isoID {
			pf.AddRect(i, ex.Items[i].Bounds, 0)
		}
	}
	if pf.Len() == 0 {
		return
	}
	var maxClear int64
	for ki := range ex.BaseKeepouts {
		if cl := ex.BaseKeepouts[ki].Clearance; cl > maxClear {
			maxClear = cl
		}
		pf.AddRect(len(ex.Items)+ki, ex.BaseKeepouts[ki].Bounds, 1)
	}
	pf.Pairs(maxClear, func(a, b geom.Item) bool { return a.Tag != b.Tag }, func(p geom.Pair) {
		isoItem, koItem := p.A, p.B
		if isoItem.Tag == 1 {
			isoItem, koItem = koItem, isoItem
		}
		item := &ex.Items[isoItem.ID]
		ko := &ex.BaseKeepouts[koItem.ID-len(ex.Items)]
		if item.Dev == ko.Dev {
			return
		}
		search := ko.Bounds.Expand(ko.Clearance)
		if !item.Bounds.Touches(search) {
			return // the sweep gap is the max clearance; this keepout's is smaller
		}
		c.countCheck()
		d, _, _ := geom.RegionDist(item.Reg, ko.Reg)
		if d < float64(ko.Clearance) || (ko.Clearance == 0 && item.Reg.Overlaps(ko.Reg)) {
			c.add(Violation{
				Rule:     "DEV.NPN.ISO",
				Severity: Error,
				Detail:   "isolation touches or approaches a transistor base (Figure 6a)",
				Where:    item.Bounds.Intersect(search),
				Path:     ex.Netlist.Devices[ko.Dev].Path,
			})
		}
	})
}
