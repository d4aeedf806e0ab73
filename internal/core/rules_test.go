package core

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/cif"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/workload"
)

// newRuleClasses are the rule-id prefixes of the layer-rule stage.
var newRuleClasses = []string{"WIDTH.", "AREA.", "ENC.", "OVL.", "EXT."}

// TestLayerRuleGroundTruth drives each ground-truth breaker end-to-end:
// the defect must produce exactly one violation of its target rule, at the
// recorded location, with none of the other layer-rule classes firing; a
// cold engine Check must agree with the spec, and a warm engine Recheck
// (the edit applied to an already-checked clean chip) with the cold Check
// byte for byte.
func TestLayerRuleGroundTruth(t *testing.T) {
	cases := []struct {
		name string
		rule string
		brk  func(c *workload.Chip) geom.Rect
	}{
		{"width", "WIDTH.ND", func(c *workload.Chip) geom.Rect { return c.BreakRuleWidth(0) }},
		{"area", "AREA.NM", func(c *workload.Chip) geom.Rect { return c.BreakRuleArea(0) }},
		{"enclosure", "ENC.NM.NC", func(c *workload.Chip) geom.Rect { return c.BreakRuleEnclosure(0) }},
		{"overlap", "OVL.NP.ND", func(c *workload.Chip) geom.Rect { return c.BreakRuleOverlap(0) }},
		{"extension", "EXT.NP.ND", func(c *workload.Chip) geom.Rect { return c.BreakRuleExtension(0) }},
	}
	for _, tcse := range cases {
		t.Run(tcse.name, func(t *testing.T) {
			tc := tech.NMOS()

			// Cold engine over the broken chip.
			chip := workload.NewChip(tc, "bk-"+tcse.name, 2, 2)
			where := tcse.brk(chip)
			cold, err := NewEngine(tc, Options{}).Check(chip.Design)
			if err != nil {
				t.Fatal(err)
			}
			requireSpec(t, tcse.name+" cold engine", cold, specCheck(chip.Design, tc, Options{}))

			counts := CountByRule(cold.Violations)
			if counts[tcse.rule] != 1 {
				t.Fatalf("%s count = %d, want exactly 1 (all: %v)", tcse.rule, counts[tcse.rule], counts)
			}
			for _, v := range cold.Violations {
				if v.Rule == tcse.rule && v.Where != where {
					t.Fatalf("%s at %v, ground truth %v", tcse.rule, v.Where, where)
				}
			}
			for _, prefix := range newRuleClasses {
				if strings.HasPrefix(tcse.rule, prefix) {
					continue
				}
				for rule, n := range counts {
					if strings.HasPrefix(rule, prefix) {
						t.Fatalf("untargeted class fired: %s x%d", rule, n)
					}
				}
			}

			// Warm engine: check clean, apply the edit, recheck.
			chip2 := workload.NewChip(tc, "bk-"+tcse.name, 2, 2)
			eng := NewEngine(tc, Options{})
			clean, err := eng.Check(chip2.Design)
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Clean() {
				t.Fatalf("chip not clean before the break: %v", clean.Errors())
			}
			tcse.brk(chip2)
			warm, err := eng.Recheck(chip2.Design)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, tcse.name+" warm recheck", warm, cold)
		})
	}
}

// TestRuleClassTally locks the class vocabulary of the wire report's
// per-class summary.
func TestRuleClassTally(t *testing.T) {
	tc := tech.NMOS()
	chip := workload.NewChip(tc, "classes", 2, 2)
	// Both in cell 0's lane: metal and diffusion carry no mutual rule.
	chip.BreakRuleWidth(0)
	chip.BreakRuleArea(0)
	rep, err := Check(chip.Design, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	classes := CountByClass(rep.Errors())
	// W.ND and WIDTH.ND both land in "width"; the area island adds one.
	if classes["width"] != 2 || classes["area"] != 1 {
		t.Fatalf("class tally = %v", classes)
	}
	for _, absent := range []string{"enclosure", "overlap", "extension", "spacing"} {
		if classes[absent] != 0 {
			t.Fatalf("unexpected %s violations: %v", absent, classes)
		}
	}
	if RuleClass("S.ND.ND.diff") != "spacing" || RuleClass("X.WEIRD") != "other" {
		t.Fatal("RuleClass vocabulary drifted")
	}
}

// TestLayerRulesHierarchyAddsNoError: hierarchy must never add a verdict
// that the flat drawing of the same mask lacks. Each case draws one mask
// twice, every box in one definition and then with some boxes moved into a
// cell the top calls once at the origin, and compares the two reports'
// verdicts by (rule, where). Stage 3 judges a definition's own geometry,
// calls excluded, so a cell's metal island that the caller's metal widens
// fails AREA, and a cell's cut that the caller's pad encloses fails ENC;
// those two skip, with the verdicts the split adds, until ROADMAP item 2b
// judges an island where it closes. The control keeps pad and cut in one
// definition.
func TestLayerRulesHierarchyAddsNoError(t *testing.T) {
	nm := tech.NMOS()
	cases := []struct {
		name, flat, split string
		known             bool // the split adds a verdict (ROADMAP item 2b)
	}{
		{"area", "DS 2 1 1; 9 top; L NM; B 3750 750 1875 375; B 750 750 375 375; DF; C 2; E",
			"DS 1 1 1; 9 cell; L NM; B 750 750 375 375; DF; DS 2 1 1; 9 top; L NM; B 3750 750 1875 375; C 1; DF; C 2; E", true},
		{"enclosure", "DS 2 1 1; 9 top; L NM; B 1500 1500 750 750; L NC; B 500 500 750 750; DF; C 2; E",
			"DS 1 1 1; 9 cell; L NC; B 500 500 750 750; DF; DS 2 1 1; 9 top; L NM; B 1500 1500 750 750; C 1; DF; C 2; E", true},
		{"control", "DS 2 1 1; 9 top; L NM; B 1500 1500 750 750; L NC; B 500 500 750 750; DF; C 2; E",
			"DS 1 1 1; 9 cell; L NM; B 1500 1500 750 750; L NC; B 500 500 750 750; DF; DS 2 1 1; 9 top; C 1; DF; C 2; E", false},
	}
	verdicts := func(src string) map[string]int {
		t.Helper()
		d, err := cif.Parse(src, nm, "h")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewEngine(nm, Options{}).Check(d)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int)
		for _, v := range rep.Violations {
			out[fmt.Sprintf("%s at %v", v.Rule, v.Where)]++
		}
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flat, split := verdicts(c.flat), verdicts(c.split)
			if maps.Equal(flat, split) {
				return
			}
			if c.known {
				t.Skipf("split reports %v, flat %v: hierarchy adds an error (ROADMAP item 2b)", split, flat)
			}
			t.Fatalf("split reports %v, flat %v", split, flat)
		})
	}
}
