package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/process"
	"repro/internal/tech"
	"repro/internal/workload"
)

// Sizes used by the scaling experiments; Quick selects the prefix used in
// -short mode.
var e1Sizes = []struct{ rows, cols, errors int }{
	{4, 5, 10},
	{8, 12, 24},
	{16, 25, 50},
	{32, 50, 100},
}

// E01 reproduces Figure 1 and the "false:real can be 10:1 or higher"
// claim: real-flagged / unchecked / false error counts for the DIC and the
// traditional baseline over growing chips with seeded ground truth.
func E01(quick bool) (*Table, error) {
	t := &Table{
		ID:     "E01",
		Title:  "error economics: real flagged / unchecked / false",
		Figure: "Figure 1 + the 10:1 false:real claim",
		Columns: []string{
			"devices", "injected",
			"DIC real", "DIC miss", "DIC false",
			"flat real", "flat miss", "flat false", "flat false:real", "flat eff",
		},
	}
	sizes := e1Sizes
	if quick {
		sizes = sizes[:2]
	}
	for _, s := range sizes {
		res, err := RunE1(tech.NMOS(), s.rows, s.cols, s.errors, 1980)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			res.Devices, res.Injected,
			res.DIC.RealFlagged, res.DIC.Missed, res.DIC.False,
			res.Flat.RealFlagged, res.Flat.Missed, res.Flat.False,
			fmt.Sprintf("%.1f:1", res.Flat.FalseToRealRatio()),
			fmt.Sprintf("%.0f%%", 100*res.Flat.Effectiveness()),
		)
	}
	t.Note("baseline false errors are legal butting contacts flagged by the mask-level gate rule (Figure 7)")
	t.Note("baseline misses: accidental transistors, missing gate overlaps, shallow connections, P-G shorts")
	return t, nil
}

// E02 reproduces Figure 2: figure-based pathologies. Each row is one
// pathology with both checkers' verdicts.
func E02() (*Table, error) {
	t := &Table{
		ID:      "E02",
		Title:   "figure pathologies",
		Figure:  "Figure 2 (+ Figures 5-8, 15 pathology table)",
		Columns: []string{"case", "figure", "DIC verdict", "baseline verdict", "baseline failure"},
	}
	for _, p := range workload.AllPathologies() {
		res, err := RunPathology(p)
		if err != nil {
			return nil, err
		}
		dic := "clean"
		if len(res.DICRules) > 0 {
			dic = fmt.Sprintf("%d rule(s) %v", len(res.DICRules), keys(res.DICRules))
		}
		fl := "clean"
		if len(res.FlatRules) > 0 {
			fl = fmt.Sprintf("%d rule(s) %v", len(res.FlatRules), keys(res.FlatRules))
		}
		failure := "-"
		if p.FlatMisses {
			failure = "misses (region 1)"
		}
		if p.FlatFalse {
			failure = "false error (region 3)"
		}
		if !res.DICOk {
			dic += " (UNEXPECTED)"
		}
		if !res.FlatAsDoc {
			fl += " (UNEXPECTED)"
		}
		t.AddRow(p.Name, p.Figure, dic, fl, failure)
	}
	return t, nil
}

// E03 reproduces Figure 3: orthogonal vs Euclidean expand and shrink of a
// square — corner shapes via exact areas.
func E03() (*Table, error) {
	t := &Table{
		ID:      "E03",
		Title:   "orthogonal vs Euclidean expand/shrink of a 20x20λ square",
		Figure:  "Figure 3",
		Columns: []string{"d (λ)", "ortho area", "euclid area", "corner deficit", "shrink equal"},
	}
	sq := geom.R(0, 0, 5000, 5000)
	reg := geom.FromRectR(sq)
	for _, dLam := range []int64{1, 2, 4, 8} {
		d := dLam * 250
		ortho := float64(geom.OrthogonalExpandArea(reg, d))
		euc := geom.EuclideanExpandArea(reg, d)
		deficit := ortho - euc
		wantDeficit := 4 * (1 - math.Pi/4) * float64(d) * float64(d)
		shrinkEq := geom.EuclideanShrinkRect(sq, d) == sq.Expand(-d)
		t.AddRow(dLam, ortho, euc,
			fmt.Sprintf("%.0f (exact %.0f)", deficit, wantDeficit),
			shrinkEq)
	}
	t.Note("Euclidean expand rounds corners: deficit = 4(1-π/4)d² exactly; shrink agrees on squares")
	return t, nil
}

// E04 reproduces Figure 4: the width pathology of the Euclidean
// shrink-expand-compare and the spacing pathology of orthogonal
// expand-check-overlap.
func E04() (*Table, error) {
	t := &Table{
		ID:      "E04",
		Title:   "width & spacing check pathologies on legal geometry",
		Figure:  "Figure 4",
		Columns: []string{"check", "technique", "flags on legal layout", "comment"},
	}
	tc := tech.NMOS()
	diffL, _ := tc.LayerByName(tech.NMOSDiff)

	// Width: a legal square.
	d1 := newSingleBoxDesign(tc, diffL, geom.R(0, 0, 2000, 2000))
	secRep, err := flat.Check(d1, tc, flat.Options{EuclideanSECWidth: true})
	if err != nil {
		return nil, err
	}
	orthoRep, err := flat.Check(d1, tc, flat.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("width", "Euclidean shrink-expand-compare", len(secRep.Violations), "errors at every corner")
	t.AddRow("width", "orthogonal shrink-expand-compare", len(orthoRep.Violations), "exact for Manhattan")

	// Spacing: a diagonal pair with Euclidean clearance above the rule.
	d2 := newSingleBoxDesign(tc, diffL, geom.R(0, 0, 2000, 2000))
	d2.Top.AddBox(diffL, geom.R(2600, 2600, 4600, 4600), "")
	orthoSp, err := flat.Check(d2, tc, flat.Options{})
	if err != nil {
		return nil, err
	}
	eucSp, err := flat.Check(d2, tc, flat.Options{Metric: flat.Euclidean})
	if err != nil {
		return nil, err
	}
	t.AddRow("spacing", "orthogonal expand-check-overlap", len(orthoSp.Violations), "corner-to-edge false error")
	t.AddRow("spacing", "Euclidean distance", len(eucSp.Violations), "clearance 849 >= 750: legal")
	t.Note("neither fixed technique models processing; see E12 for the paper's physics-based answer")
	return t, nil
}

// E09 reproduces Figures 9-10: the hierarchical pipeline against the flat
// baseline over growing regular chips — run time and work counters.
func E09(quick bool) (*Table, error) {
	t := &Table{
		ID:     "E09",
		Title:  "hierarchical DIC vs flat baseline on regular chips",
		Figure: "Figures 9-10 (hierarchy exploits regularity)",
		Columns: []string{
			"devices", "flat elems",
			"DIC defs checked", "DIC time",
			"flat time", "DIC candidates", "DIC measured",
		},
	}
	sizes := []struct{ rows, cols int }{{4, 5}, {8, 12}, {16, 25}, {32, 50}}
	if quick {
		sizes = sizes[:2]
	}
	for _, s := range sizes {
		tc := tech.NMOS()
		chip := workload.NewChip(tc, "e9", s.rows, s.cols)
		st := chip.Design.Stats()

		start := time.Now()
		rep, err := core.Check(chip.Design, tc, core.Options{})
		if err != nil {
			return nil, err
		}
		dicDur := time.Since(start)
		if !rep.Clean() {
			return nil, fmt.Errorf("E09 chip not clean: %v", rep.Errors()[0])
		}
		frep, err := flat.Check(chip.Design, tc, flat.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			st.FlatDevices, st.FlatElements,
			rep.Stats.ElementsChecked+rep.Stats.SymbolDefsChecked,
			dicDur.Round(time.Millisecond),
			frep.Duration.Round(time.Millisecond),
			rep.Stats.InteractionCandidates,
			rep.Stats.InteractionChecked,
		)
	}
	t.Note("element and device checks run once per DEFINITION: the 'defs checked' column stays constant as the chip grows")
	return t, nil
}

// E10 reproduces Figure 11: skeletal connectivity cases and the width
// invariant.
func E10() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "skeletal connectivity criterion",
		Figure:  "Figure 11",
		Columns: []string{"case", "skeletally connected", "union width legal"},
	}
	w := int64(500)
	cases := []struct {
		name string
		a, b geom.Rect
	}{
		{"deep overlap (2x min width)", geom.R(0, 0, 4000, 500), geom.R(3000, 0, 7000, 500)},
		{"overlap exactly min width", geom.R(0, 0, 4000, 500), geom.R(3500, 0, 7500, 500)},
		{"shallow corner overlap", geom.R(0, 0, 4000, 500), geom.R(3875, 375, 7875, 875)},
		{"end-to-end abutment (Fig 15)", geom.R(0, 0, 4000, 500), geom.R(4000, 0, 8000, 500)},
		{"disjoint", geom.R(0, 0, 4000, 500), geom.R(5000, 0, 9000, 500)},
		{"enclosure", geom.R(0, 0, 4000, 4000), geom.R(1000, 1000, 2000, 2000)},
	}
	for _, c := range cases {
		ra, rb := geom.FromRectR(c.a), geom.FromRectR(c.b)
		conn := geom.SkeletalConnected(ra, rb, w)
		legal := geom.MinWidthOK(ra.Union(rb), w)
		t.AddRow(c.name, conn, legal)
	}
	t.Note("invariant (property-tested): legal width + skeletal connection => legal union width")
	return t, nil
}

// E11 reproduces Figure 12: the interaction matrix audit plus measured
// skip counters from a real run.
func E11() (*Table, error) {
	tc := tech.NMOS()
	t := &Table{
		ID:      "E11",
		Title:   "interaction matrix: which cells are checked",
		Figure:  "Figure 12",
		Columns: []string{"pair", "diff-net rule", "same-net rule", "related exempt", "note"},
	}
	checked, skipped := 0, 0
	for _, cell := range tc.InteractionMatrix() {
		if cell.Checked {
			checked++
		} else {
			skipped++
			if cell.Rule.Note == "" {
				continue // unremarkable empty cell
			}
		}
		diff, same := "-", "-"
		if cell.Rule.DiffNet > 0 {
			diff = fmt.Sprintf("%dλ", cell.Rule.DiffNet/tc.Lambda)
		}
		if cell.Rule.SameNet > 0 {
			same = fmt.Sprintf("%dλ", cell.Rule.SameNet/tc.Lambda)
		}
		t.AddRow(cell.Names, diff, same, cell.Rule.ExemptRelated, cell.Rule.Note)
	}
	t.Note("%d of %d upper-triangular cells carry any rule; the rest are skipped outright", checked, checked+skipped)

	chip := workload.NewChip(tc, "e11", 8, 12)
	rep, err := core.Check(chip.Design, tc, core.Options{})
	if err != nil {
		return nil, err
	}
	st := rep.Stats
	t.Note("measured on a %d-device chip: %d candidate pairs -> %d measured; skips: %d no-rule, %d same-net (Fig 5a), %d related, %d connection-stage",
		chip.DeviceCount(), st.InteractionCandidates, st.InteractionChecked,
		st.SkippedNoRule, st.SkippedSameNetExempt, st.SkippedRelated, st.SkippedConnectionPairs)
	return t, nil
}

// E12 reproduces Figure 13 and Eq. 1: Euclidean vs orthogonal vs proximity
// expansion, with the closed-form/numeric agreement check.
func E12() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "process-model expansion: printed gap between two boxes",
		Figure:  "Figure 13 + Equation 1",
		Columns: []string{"drawn gap", "unary prediction", "printed gap", "proximity effect"},
	}
	m := process.Model{Sigma: 100, Threshold: 0.4} // over-exposed process
	shift := m.IsolatedEdgeShift()
	for _, gap := range []int64{1000, 500, 375, 300, 250, 200} {
		a := geom.FromRectR(geom.R(-2000, -1000, 0, 1000))
		b := geom.FromRectR(geom.R(gap, -1000, gap+2000, 1000))
		unary := float64(gap) - 2*shift
		printed := m.PrintedGap(a, b)
		t.AddRow(gap, unary, printed, fmt.Sprintf("%.2f", unary-printed))
	}
	t.Note("isolated edge shift %.2f; the proximity effect (unary - printed) grows as the gap shrinks: bias is not unary", shift)

	// Different-layer spacing includes worst-case mask misalignment: the
	// same drawn gap passes same-layer and fails cross-layer.
	sm := process.Model{Sigma: 100, Threshold: 0.5}
	a2 := geom.FromRectR(geom.R(-2000, -500, 0, 500))
	b2 := geom.FromRectR(geom.R(700, -500, 2700, 500))
	t.Note("misalignment: 700 drawn gap, same layer (0 misalign) ok=%v; cross layer (600 misalign) ok=%v",
		sm.SpacingOK(a2, b2, 0, 100), sm.SpacingOK(a2, b2, 600, 100))

	// Closed form vs numeric convolution.
	mask := geom.FromRects([]geom.Rect{geom.R(0, 0, 400, 200), geom.R(300, 100, 600, 500)})
	p := geom.FPoint{X: 350, Y: 150}
	exact := m.ExposureAt(mask, p)
	numeric := m.ExposureAtNumeric(mask, p, 4)
	t.Note("Eq.1 closed form %.4f vs numeric convolution %.4f (|Δ| = %.4f)", exact, numeric, math.Abs(exact-numeric))
	return t, nil
}

// E13 reproduces Figure 14: end retreat vs wire width and the relational
// gate-overlap rule.
func E13() (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "relational rule: end retreat and required gate overlap vs poly width",
		Figure:  "Figure 14",
		Columns: []string{"poly width (λ)", "end retreat", "required overlap", "2λ drawn overlap ok"},
	}
	// A coarse process (σ = λ) makes the relational effect visible at
	// drawn dimensions; DefaultModel's σ = λ/2 shows the same shape.
	m := process.Model{Sigma: 250, Threshold: 0.5}
	const margin = 125 // λ/2 safety
	for _, wLam := range []int64{2, 3, 4, 6, 8} {
		w := wLam * 250
		retreat := m.EndRetreat(w)
		need := m.RequiredGateOverlap(w, margin)
		ok := m.RelationalGateCheck(w, 500, margin)
		t.AddRow(wLam, fmt.Sprintf("%.1f", retreat), fmt.Sprintf("%.1f", need), ok)
	}
	t.Note("narrow wires retreat more, so the required overlap is a function of the width — a rule no fixed number expresses")
	return t, nil
}

// E15 exercises the four non-geometric construction rules.
func E15() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "non-geometric construction rules",
		Figure:  "the paper's rule list 1-4",
		Columns: []string{"rule", "violating case", "reported", "clean chip reports"},
	}
	tc := tech.NMOS()

	chip := workload.NewChip(tc, "e15clean", 4, 4)
	cleanRep, err := core.Check(chip.Design, tc, core.Options{})
	if err != nil {
		return nil, err
	}
	cleanByRule := core.CountByRule(cleanRep.Errors())

	cases := []struct {
		rule string
		mk   func() *workload.Chip
	}{
		{"NET.FANOUT", func() *workload.Chip {
			c := workload.NewChip(tc, "e15a", 1, 2)
			diffL, _ := tc.LayerByName(tech.NMOSDiff)
			c.Design.Top.AddWire(diffL, 500, "dangling", geom.Pt(0, 6000), geom.Pt(4000, 6000))
			return c
		}},
		{"NET.PGSHORT", func() *workload.Chip {
			c := workload.NewChip(tc, "e15b", 2, 3)
			workloadInjectKind(c, workload.ErrPGShort)
			return c
		}},
		{"NET.BUSRAIL", func() *workload.Chip {
			c := workload.NewChip(tc, "e15c", 1, 2)
			metalL, _ := tc.LayerByName(tech.NMOSMetal)
			// A declared bus wire melting into the GND rail.
			c.Design.Top.AddWire(metalL, 750, "bus0",
				geom.Pt(0, workload.GndRailY), geom.Pt(4000, workload.GndRailY))
			return c
		}},
		{"NET.DEPGND", func() *workload.Chip {
			c := workload.NewChip(tc, "e15d", 1, 2)
			diffL, _ := tc.LayerByName(tech.NMOSDiff)
			// Pull the first cell's output diffusion into the ground net:
			// its pullup (source side) now touches ground.
			c.Design.Top.AddWire(diffL, 500, "GND", geom.Pt(500, 0), geom.Pt(2750, 0))
			return c
		}},
	}
	for _, cse := range cases {
		c := cse.mk()
		rep, err := core.Check(c.Design, tc, core.Options{})
		if err != nil {
			return nil, err
		}
		n := core.CountByRule(rep.Errors())[cse.rule]
		t.AddRow(cse.rule, cse.rule+" scenario", n, cleanByRule[cse.rule])
	}
	t.Note("the clean chip reports zero for all four rules; each scenario triggers exactly its rule")
	return t, nil
}

// E16 reproduces the claim: "The visual checks required on a 100K device
// chip which has been checked by an 80% effective DRC are as onerous as
// those required to visually check a 20K device chip with no DRC."
func E16(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "residual visual work: devices x (1 - effectiveness)",
		Figure:  "the 100K/20K visual-check claim",
		Columns: []string{"devices", "checker", "effectiveness", "residual visual work (device-equivalents)"},
	}
	sizes := []struct{ rows, cols, errors int }{{8, 12, 24}, {16, 25, 50}}
	if quick {
		sizes = sizes[:1]
	}
	for _, s := range sizes {
		res, err := RunE1(tech.NMOS(), s.rows, s.cols, s.errors, 7)
		if err != nil {
			return nil, err
		}
		flatEff := res.Flat.Effectiveness()
		dicEff := res.DIC.Effectiveness()
		t.AddRow(res.Devices, "none", "0%", res.Devices)
		t.AddRow(res.Devices, "flat baseline", fmt.Sprintf("%.0f%%", 100*flatEff),
			fmt.Sprintf("%.0f", float64(res.Devices)*(1-flatEff)))
		t.AddRow(res.Devices, "DIC", fmt.Sprintf("%.0f%%", 100*dicEff),
			fmt.Sprintf("%.0f", float64(res.Devices)*(1-dicEff)))
	}
	t.Note("paper's arithmetic: 100K x (1-0.80) = 20K x (1-0) — an 80%% checker leaves a fifth of the chip to the eye")
	t.Note("measured flat effectiveness here reflects the error mix: device/net errors are invisible to masks")
	return t, nil
}

// E06 reproduces Figure 6 at scale: a bipolar chip where every resistor
// is legally tied to isolation while every transistor base must stay
// clear. One deliberately broken pair must produce exactly one integrity
// error and zero false errors on the legal ties.
func E06(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E06",
		Title:   "device-dependent rules at scale (bipolar base vs isolation)",
		Figure:  "Figure 6",
		Columns: []string{"pairs", "devices", "clean-chip errors", "errors after break", "of which DEV.NPN.ISO", "false flags on resistor ties"},
	}
	sizes := []int{8, 32}
	if quick {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		clean := workload.NewBipolarChip(tech.Bipolar(), "e06clean", n)
		cleanRep, err := core.Check(clean.Design, clean.Tech, core.Options{SkipConstruction: true})
		if err != nil {
			return nil, err
		}
		broken := workload.NewBipolarChip(tech.Bipolar(), "e06broken", n)
		where := broken.BreakIsolation(n / 2)
		brokenRep, err := core.Check(broken.Design, broken.Tech, core.Options{SkipConstruction: true})
		if err != nil {
			return nil, err
		}
		iso, falseTies := 0, 0
		for _, v := range brokenRep.Errors() {
			if v.Rule != "DEV.NPN.ISO" {
				continue
			}
			if v.Where.Expand(500).Touches(where) {
				iso++
			} else {
				falseTies++
			}
		}
		t.AddRow(n, 2*n, len(cleanRep.Errors()), len(brokenRep.Errors()), iso, falseTies)
	}
	t.Note("identical base-layer geometry: the transistor case is an integrity error, the resistor tie is legal")
	return t, nil
}

// E17 is the ablation study: run the DIC on a CLEAN chip with parts of
// its information deliberately discarded, and count the resulting false
// errors. This quantifies what each piece of the paper's design buys.
func E17(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "ablation: false errors on a clean chip as information is removed",
		Figure:  "the paper's argument, inverted",
		Columns: []string{"configuration", "false errors", "interactions measured", "notes"},
	}
	rows, cols := 16, 25
	if quick {
		rows, cols = 8, 12
	}
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "e17", rows, cols)

	type cfg struct {
		name string
		opts core.Options
		note string
	}
	cfgs := []cfg{
		{"full DIC (nets + devices + Euclidean)", core.Options{},
			"the paper's checker"},
		{"orthogonal metric", core.Options{Metric: core.Orthogonal},
			"Figure 4 corner metric inside the DIC"},
		{"no net/device exemptions", core.Options{NoExemptions: true},
			"every pair checked as unrelated (Figures 5/12 discarded)"},
	}
	for _, c := range cfgs {
		rep, err := core.Check(chip.Design, tc, c.opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, len(rep.Errors()), rep.Stats.InteractionChecked, c.note)
	}
	frep, err := flat.Check(chip.Design, tc, flat.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("flat mask-level baseline", len(frep.Violations), "-",
		"full instantiation, no topology at all")
	t.Note("the chip is verified clean, so every reported error is false; each removed piece of information adds its own class of false errors")
	return t, nil
}

// workloadInjectKind injects one specific error kind into cell (0,0).
func workloadInjectKind(c *workload.Chip, kind workload.ErrorKind) {
	// InjectErrors cycles kinds in order; request enough to reach the kind.
	n := int(kind) + 1
	workload.InjectErrors(c, n, 7)
}

func newSingleBoxDesign(tc *tech.Technology, layer tech.LayerID, r geom.Rect) *layout.Design {
	_ = tc
	d := layout.NewDesign("single")
	top := d.MustSymbol("top")
	top.AddBox(layer, r, "")
	d.Top = top
	return d
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
