package core

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/tech"
)

// Metric selects the spacing geometry model for the interaction stage.
type Metric uint8

// Spacing metrics.
const (
	// Euclidean measures true Euclidean clearance — no Figure 4
	// corner-to-corner false errors. The DIC default.
	Euclidean Metric = iota
	// Orthogonal is the traditional expand-check-overlap L∞ metric,
	// provided for the Figure 4 pathology experiments.
	Orthogonal
)

// Options configures a check run.
type Options struct {
	// Metric is the spacing metric (default Euclidean).
	Metric Metric
	// Reference, when non-nil, is compared against the extracted netlist
	// (the paper's input-netlist consistency check).
	Reference netlist.Reference
	// SkipConstruction disables the non-geometric construction rules.
	SkipConstruction bool
	// NoExemptions is an ablation switch: ignore the same-net and
	// related-through-device subcases and check every interaction as if
	// the elements were unrelated — i.e. throw away exactly the
	// topological information the paper argues for. On a clean chip the
	// resulting violations are all false errors, measuring what the net
	// and device knowledge buys (Figures 5 and 12).
	NoExemptions bool

	// ProcessSpacing, when non-nil, gives every spacing violation a second
	// opinion from the paper's 2-D process model (Figure 13, Eq. 1): the
	// pair is re-evaluated along the line of closest approach, with
	// worst-case mask misalignment (half the technology λ) for cross-layer
	// pairs, and a violation whose printed images still keep at least
	// ProcessMargin of clearance is downgraded to a warning. This is the
	// paper's "more correct" physics-based check layered over the
	// fixed-number rules.
	ProcessSpacing *process.Model
	// ProcessMargin is the minimum printed gap the process model must
	// predict for a downgrade (centimicrons; 0 = any positive gap).
	ProcessMargin float64
}

// StageStats times one pipeline stage.
type StageStats struct {
	Name       string
	Duration   time.Duration
	Checks     int // geometric predicates evaluated
	Violations int
}

// Stats aggregates checker metrics. The Skipped* counters audit the
// Figure 12 claim that most interaction subcases require no check.
type Stats struct {
	Stages []StageStats

	ElementsChecked   int // element definitions width-checked (once per def)
	SymbolDefsChecked int // primitive symbol definitions checked
	DeviceInstances   int // device instances on the chip (for comparison)

	InteractionStats
}

// InteractionStats are the interaction stage's counters. The engine keeps
// one set per adjudicated tally and adds them up into the report's.
type InteractionStats struct {
	InteractionCandidates  int // candidate pairs from the sweep
	InteractionChecked     int // pairs geometrically measured
	SkippedNoRule          int // layer pair has no rule at all
	SkippedSameNetExempt   int // same net, no same-net rule (Figure 5a)
	SkippedRelated         int // same device, related exemption
	SkippedConnectionPairs int // handled by the connection stage
	ProcessDowngrades      int // rule violations the process model cleared
}

// add adds o's counters to s.
func (s *InteractionStats) add(o *InteractionStats) {
	s.InteractionCandidates += o.InteractionCandidates
	s.InteractionChecked += o.InteractionChecked
	s.SkippedNoRule += o.SkippedNoRule
	s.SkippedSameNetExempt += o.SkippedSameNetExempt
	s.SkippedRelated += o.SkippedRelated
	s.SkippedConnectionPairs += o.SkippedConnectionPairs
	s.ProcessDowngrades += o.ProcessDowngrades
}

// sub subtracts o's counters from s.
func (s *InteractionStats) sub(o *InteractionStats) {
	s.InteractionCandidates -= o.InteractionCandidates
	s.InteractionChecked -= o.InteractionChecked
	s.SkippedNoRule -= o.SkippedNoRule
	s.SkippedSameNetExempt -= o.SkippedSameNetExempt
	s.SkippedRelated -= o.SkippedRelated
	s.SkippedConnectionPairs -= o.SkippedConnectionPairs
	s.ProcessDowngrades -= o.ProcessDowngrades
}

// Report is the result of a DIC run.
type Report struct {
	Design     *layout.Design
	Tech       *tech.Technology
	Violations []Violation
	Netlist    *netlist.Netlist
	Stats      Stats
}

// Errors returns only the error-severity violations.
func (r *Report) Errors() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Severity == Error {
			out = append(out, v)
		}
	}
	return out
}

// Clean reports whether no error-severity violations were found.
func (r *Report) Clean() bool { return len(r.Errors()) == 0 }

// Check runs the full DIC pipeline on a design: one cold run of a fresh
// Engine. Callers that will check the design again after editing it should
// keep an Engine instead. Like every engine run it caches content hashes
// on the design's symbols, so checks of one design must not run
// concurrently.
func Check(d *layout.Design, tc *tech.Technology, opts Options) (*Report, error) {
	return NewEngine(tc, opts).Check(d)
}

type checker struct {
	design *layout.Design
	tech   *tech.Technology
	rep    *Report

	curStage *StageStats
}

// stage runs one pipeline stage with timing and violation accounting.
func (c *checker) stage(name string, fn func()) {
	st := StageStats{Name: name}
	c.rep.Stats.Stages = append(c.rep.Stats.Stages, st)
	c.curStage = &c.rep.Stats.Stages[len(c.rep.Stats.Stages)-1]
	before := len(c.rep.Violations)
	start := time.Now()
	fn()
	c.curStage.Duration = time.Since(start)
	c.curStage.Violations = len(c.rep.Violations) - before
	c.curStage = nil
}

func (c *checker) add(v Violation) {
	c.rep.Violations = append(c.rep.Violations, v)
}

// addNamed adds violations cached under a definition's content hash,
// attributed to one symbol that draws that content.
func (c *checker) addNamed(vs []Violation, symbol string) {
	for _, v := range vs {
		v.Symbol = symbol
		c.rep.Violations = append(c.rep.Violations, v)
	}
}

// countChecks adds n to the running stage's checks.
func (c *checker) countChecks(n int) {
	if c.curStage != nil {
		c.curStage.Checks += n
	}
}

// stageChecks returns the running stage's checks so far.
func (c *checker) stageChecks() int {
	if c.curStage != nil {
		return c.curStage.Checks
	}
	return 0
}

// elementChecks runs stage-1 width checking for one composite symbol
// definition, returning the violations (in symbol coordinates), the number
// of geometric predicates evaluated, and the number of elements examined.
// Factored out of the pipeline loop so the incremental engine can cache
// the result per definition content hash. The violations carry no Symbol:
// every definition with this content shares them, and the engine writes
// each one's name as it adds them to a report (addNamed).
func elementChecks(s *layout.Symbol, tc *tech.Technology) (vs []Violation, checks, elements int) {
	for _, e := range s.Elements {
		elements++
		reg, err := e.Region()
		if err != nil {
			vs = append(vs, Violation{
				Rule: "STRUCT.ELEM", Severity: Error,
				Detail: err.Error(), Where: e.Bounds(), Layer: e.Layer,
			})
			continue
		}
		layer := tc.Layer(e.Layer)
		if layer.MinWidth <= 0 {
			continue
		}
		checks++
		for _, w := range geom.WidthViolations(reg, layer.MinWidth) {
			vs = append(vs, Violation{
				Rule:     "W." + layer.CIF,
				Severity: Error,
				Detail: fmt.Sprintf("%s %s narrower than %d (self-sufficiency: every element must be legal alone)",
					layer.Name, e.Kind, layer.MinWidth),
				Where: w, Layer: e.Layer,
			})
		}
	}
	return vs, checks, elements
}

// deviceProblemViolations converts stage-2 device analysis problems into
// violations attributed to the defining symbol.
func deviceProblemViolations(s *layout.Symbol, probs []device.Problem) []Violation {
	var vs []Violation
	for _, p := range probs {
		vs = append(vs, Violation{
			Rule: p.Rule, Severity: Error, Detail: p.Detail,
			Where: p.Where, Symbol: s.Name,
		})
	}
	return vs
}

func (c *checker) netNames(nl *netlist.Netlist, ids ...netlist.NetID) []string {
	var out []string
	for _, id := range ids {
		if id >= 0 && int(id) < len(nl.Nets) {
			out = append(out, nl.Nets[id].Name)
		}
	}
	return out
}
