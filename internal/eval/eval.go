// Package eval scores checker output against workload ground truth and
// runs the paper's evaluation scenarios. It is the measurement harness for
// the Figure 1 error economics: every violation is classified as
// real-flagged (region 2), false (region 3), and every injected error not
// reported is unchecked (region 1).
package eval

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/workload"
)

// Outcome classifies one checker's output against ground truth.
type Outcome struct {
	Injected    int
	RealFlagged int // injections with at least one matching violation
	Missed      int // injections with none (region 1, unchecked)
	False       int // violations matching no injection (region 3)
	Violations  int // total violations reported
	Duration    time.Duration
}

// FalseToRealRatio returns the paper's headline metric.
func (o Outcome) FalseToRealRatio() float64 {
	if o.RealFlagged == 0 {
		if o.False == 0 {
			return 0
		}
		return float64(o.False)
	}
	return float64(o.False) / float64(o.RealFlagged)
}

// Effectiveness returns the detected fraction of injected errors.
func (o Outcome) Effectiveness() float64 {
	if o.Injected == 0 {
		return 1
	}
	return float64(o.RealFlagged) / float64(o.Injected)
}

// String renders a one-line summary.
func (o Outcome) String() string {
	return fmt.Sprintf("injected=%d flagged=%d missed=%d false=%d (false:real=%.1f, eff=%.0f%%) in %v",
		o.Injected, o.RealFlagged, o.Missed, o.False,
		o.FalseToRealRatio(), 100*o.Effectiveness(), o.Duration.Round(time.Millisecond))
}

// ruleMatches reports whether a violation rule matches any ground-truth
// prefix.
func ruleMatches(rule string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(rule, p) {
			return true
		}
	}
	return false
}

// locMatches reports whether a violation plausibly locates an injection:
// symbol-level errors match by symbol name; chip-level by box overlap with
// a tolerance halo.
func locMatches(inj *workload.Injected, where geom.Rect, symbol string) bool {
	if inj.Symbol != "" {
		return symbol == inj.Symbol || where.Expand(500).Touches(inj.Where)
	}
	return where.Expand(500).Touches(inj.Where)
}

// ScoreDIC classifies a DIC report against ground truth. Only
// error-severity violations count (warnings are advisory).
func ScoreDIC(injected []workload.Injected, rep *core.Report) Outcome {
	out := Outcome{Injected: len(injected)}
	detected := make([]bool, len(injected))
	for _, v := range rep.Errors() {
		out.Violations++
		matched := false
		for i := range injected {
			if ruleMatches(v.Rule, injected[i].DICRules) && locMatches(&injected[i], v.Where, v.Symbol) {
				detected[i] = true
				matched = true
			}
		}
		if !matched {
			out.False++
		}
	}
	for _, d := range detected {
		if d {
			out.RealFlagged++
		} else {
			out.Missed++
		}
	}
	return out
}

// ScoreFlat classifies a baseline report against ground truth.
func ScoreFlat(injected []workload.Injected, rep *flat.Report) Outcome {
	out := Outcome{Injected: len(injected), Duration: rep.Duration}
	detected := make([]bool, len(injected))
	for _, v := range rep.Violations {
		out.Violations++
		matched := false
		for i := range injected {
			if len(injected[i].FlatRules) == 0 {
				continue
			}
			if ruleMatches(v.Rule, injected[i].FlatRules) && locMatches(&injected[i], v.Where, "") {
				detected[i] = true
				matched = true
			}
		}
		if !matched {
			out.False++
		}
	}
	for _, d := range detected {
		if d {
			out.RealFlagged++
		} else {
			out.Missed++
		}
	}
	return out
}

// E1Result is one row of the error-economics experiment.
type E1Result struct {
	Rows, Cols int
	Devices    int
	Injected   int
	DIC        Outcome
	Flat       Outcome
}

// RunE1 builds a chip, injects errors, and runs both checkers.
func RunE1(tc *tech.Technology, rows, cols, nErrors int, seed int64) (E1Result, error) {
	chip := workload.NewChip(tc, fmt.Sprintf("e1-%dx%d", rows, cols), rows, cols)
	injected := workload.InjectErrors(chip, nErrors, seed)

	res := E1Result{Rows: rows, Cols: cols, Devices: chip.DeviceCount(), Injected: len(injected)}

	start := time.Now()
	dicRep, err := core.Check(chip.Design, tc, core.Options{})
	if err != nil {
		return res, fmt.Errorf("dic: %w", err)
	}
	dicDur := time.Since(start)
	res.DIC = ScoreDIC(injected, dicRep)
	res.DIC.Duration = dicDur

	flatRep, err := flat.Check(chip.Design, tc, flat.Options{})
	if err != nil {
		return res, fmt.Errorf("flat: %w", err)
	}
	res.Flat = ScoreFlat(injected, flatRep)
	return res, nil
}

// PathologyResult records how both checkers treated one figure pathology.
type PathologyResult struct {
	Pathology workload.Pathology
	DICRules  map[string]int
	FlatRules map[string]int
	DICOk     bool // DIC behaved as the paper prescribes
	FlatAsDoc bool // baseline exhibited the documented failure
}

// RunPathology checks one pathology with both checkers and verifies the
// documented behaviour.
func RunPathology(p workload.Pathology) (PathologyResult, error) {
	res := PathologyResult{Pathology: p, DICRules: map[string]int{}, FlatRules: map[string]int{}}

	rep, err := core.Check(p.Design, p.Tech, core.Options{SkipConstruction: true})
	if err != nil {
		return res, err
	}
	for _, v := range rep.Errors() {
		res.DICRules[v.Rule]++
	}
	frep, err := flat.Check(p.Design, p.Tech, flat.Options{})
	if err != nil {
		return res, err
	}
	for _, v := range frep.Violations {
		res.FlatRules[v.Rule]++
	}

	res.DICOk = true
	for _, want := range p.ExpectDICRules {
		if !anyRuleWithPrefix(res.DICRules, want) {
			res.DICOk = false
		}
	}
	if len(p.ExpectDICRules) == 0 && len(res.DICRules) > 0 {
		res.DICOk = false
	}
	res.FlatAsDoc = true
	for _, want := range p.ExpectFlatRules {
		if !anyRuleWithPrefix(res.FlatRules, want) {
			res.FlatAsDoc = false
		}
	}
	if p.FlatMisses && len(res.FlatRules) > 0 {
		res.FlatAsDoc = false
	}
	return res, nil
}

func anyRuleWithPrefix(rules map[string]int, prefix string) bool {
	for r := range rules {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}
