// Package dic is the public API of the Design Integrity and Immunity
// Checker — a Go reproduction of McGrath & Whitney, "Design Integrity and
// Immunity Checking: A New Look at Layout Verification and Design Rule
// Checking" (DAC 1980).
//
// The package re-exports the stable surface of the internal packages:
//
//	Technologies:  NMOS, Bipolar, CMOS — plus LoadDeck for user processes
//	Input/output:  ParseCIF, WriteCIF (extended CIF with 9N/9D/9I)
//	The checker:   Check (the paper's hierarchical pipeline, six stages)
//	The baseline:  CheckFlat (traditional mask-level DRC)
//	Extraction:    ExtractNetlist (hierarchical net list, dot notation)
//	Process model: ProcessModel (Gaussian exposure, Eq. 1)
//	Workloads:     NewChip, NewCMOSChip, InjectErrors, Pathologies
//
// Three technologies ship with the checker: the paper's λ-based
// silicon-gate nMOS process, the simplified bipolar process of Figure 6,
// and a λ=100 Mead–Conway-style p-well CMOS process. Every process is
// defined by a rule deck — a loadable text file holding the layers, the
// Figure 12 interaction matrix, and the device types (the CMOS process
// exists only as its deck) — so checking a new process means writing a
// deck, not code: see LoadDeck and the README's "Rule decks" section.
//
// Quickstart:
//
//	tc := dic.NMOS()
//	design, err := dic.ParseCIF(cifText, tc, "mychip")
//	if err != nil { ... }
//	report, err := dic.Check(design, tc, dic.Options{})
//	for _, v := range report.Errors() { fmt.Println(v) }
//
// Check is one cold run of the incremental engine: every stage's results
// are computed per symbol definition under content hashes and replayed per
// instance, so even a single verdict costs what the distinct definitions
// cost, not what the instantiated chip costs. Options.Workers sizes the
// pool that builds the per-definition interaction caches (0 = all cores,
// 1 = serial); the report is identical for any worker count.
//
// For the iterate-edit-recheck loop, NewEngine keeps that engine open as a
// session: a Recheck after an edit re-derives only the dirty subtrees and
// still returns a Report byte-identical (modulo stage durations) to a cold
// Check. See the "Incremental checking" section of the README.
package dic

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/device"
	"repro/internal/eval"
	"repro/internal/flat"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/tech"
	"repro/internal/workload"
)

// Re-exported types. These aliases are the supported public names; the
// internal packages may reorganize behind them.
type (
	// Technology describes a fabrication process: layers, width rules, the
	// Figure 12 interaction matrix, and device types.
	Technology = tech.Technology
	// Design is a hierarchical layout database.
	Design = layout.Design
	// Symbol is a layout symbol definition (possibly a device).
	Symbol = layout.Symbol
	// Element is a primitive geometric element.
	Element = layout.Element
	// Options configures the design-integrity checker.
	Options = core.Options
	// Report is the checker's result.
	Report = core.Report
	// Violation is one reported finding.
	Violation = core.Violation
	// Netlist is the extracted hierarchical net list.
	Netlist = netlist.Netlist
	// NetlistIssue is a netlist-level consistency finding.
	NetlistIssue = netlist.Issue
	// Reference is an expected netlist for consistency checking.
	Reference = netlist.Reference
	// FlatOptions configures the traditional baseline checker.
	FlatOptions = flat.Options
	// FlatReport is the baseline checker's result.
	FlatReport = flat.Report
	// Model is the Gaussian-exposure process model of Eq. 1.
	Model = process.Model
	// Chip is a generated workload.
	Chip = workload.Chip
	// CMOSChip is a generated CMOS inverter-array workload.
	CMOSChip = workload.CMOSChip
	// Deck is the parsed form of a rule deck (see LoadDeck).
	Deck = deck.Deck
	// Injected is one ground-truth injected error.
	Injected = workload.Injected
	// Pathology is one paper-figure pathology case.
	Pathology = workload.Pathology
	// Outcome classifies checker output against ground truth.
	Outcome = eval.Outcome
	// Engine is an incremental check session with content-addressed
	// symbol-definition caches (see NewEngine).
	Engine = core.Engine
	// EngineStats reports cache effectiveness for an Engine's last run.
	EngineStats = core.EngineStats
	// Rect is an axis-aligned rectangle in centimicrons.
	Rect = geom.Rect
	// Point is a lattice point in centimicrons.
	Point = geom.Point
)

// R constructs a rect from two corners (any order).
func R(x1, y1, x2, y2 int64) Rect { return geom.R(x1, y1, x2, y2) }

// Pt constructs a point.
func Pt(x, y int64) Point { return geom.Pt(x, y) }

// Severity levels for violations.
const (
	Error   = core.Error
	Warning = core.Warning
)

// Spacing metrics for Options.Metric.
const (
	Euclidean  = core.Euclidean
	Orthogonal = core.Orthogonal
)

// NMOS returns the λ=250 silicon-gate nMOS technology (Mead–Conway style).
func NMOS() *Technology { return tech.NMOS() }

// Bipolar returns the simplified bipolar technology of Figure 6.
func Bipolar() *Technology { return tech.Bipolar() }

// CMOS returns the λ=100 Mead–Conway-style p-well CMOS technology. The
// process is defined entirely by its embedded rule deck — there is no Go
// constructor behind it.
func CMOS() *Technology { return tech.CMOS() }

// Technologies returns the names of the registered technologies.
func Technologies() []string { return tech.Names() }

// LoadDeck reads, validates, and compiles a rule-deck file into a
// Technology ready for checking. Validation covers the deck's semantics
// against this build's device classes here; FromDeck checks the structure
// (duplicate layers, asymmetric interaction cells, dangling references,
// roles). The first error aborts the load. See the README for the deck
// format.
func LoadDeck(path string) (*Technology, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := deck.Parse(string(src))
	if err != nil {
		return nil, err
	}
	probs := tech.ValidateDeck(d, device.Classes())
	if errs := deck.Errors(probs); len(errs) > 0 {
		return nil, fmt.Errorf("dic: deck %s: %v (%d problems total)", path, errs[0], len(probs))
	}
	return tech.FromDeck(d)
}

// ResolveTechnology resolves a tool's technology selection the way the
// shipped commands do: a non-empty deckPath loads that rule deck via
// LoadDeck; otherwise name must be registered, and the error for an
// unknown name lists the valid ones.
func ResolveTechnology(name, deckPath string) (*Technology, error) {
	if deckPath != "" {
		return LoadDeck(deckPath)
	}
	fn, ok := tech.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown technology %q (valid: %s)", name, strings.Join(tech.Names(), ", "))
	}
	return fn(), nil
}

// ParseCIF reads extended CIF text into a design.
func ParseCIF(src string, tc *Technology, name string) (*Design, error) {
	return cif.Parse(src, tc, name)
}

// WriteCIF renders a design as extended CIF text.
func WriteCIF(d *Design, tc *Technology) (string, error) {
	return cif.Write(d, tc)
}

// NewDesign creates an empty design for programmatic construction.
func NewDesign(name string) *Design { return layout.NewDesign(name) }

// Check runs the six-stage design-integrity pipeline: one cold run of a
// fresh Engine.
func Check(d *Design, tc *Technology, opts Options) (*Report, error) {
	return core.Check(d, tc, opts)
}

// NewEngine creates a check session — the engine Check runs once, kept
// open: content-addressed caches at the symbol-definition level make
// Recheck after an edit cost only what actually changed, while producing a
// Report byte-identical (modulo stage durations) to a cold Check of the
// same design state.
//
//	eng := dic.NewEngine(tc, dic.Options{})
//	rep, _ := eng.Check(design)     // cold: populates the caches
//	...edit some symbols...
//	rep, _ = eng.Recheck(design)    // warm: re-derives only dirty subtrees
//
// Options are fixed at construction. An Engine is not safe for concurrent
// use; treat returned Reports as immutable.
func NewEngine(tc *Technology, opts Options) *Engine {
	return core.NewEngine(tc, opts)
}

// Fingerprint serializes the duration-free content of a report — the part
// guaranteed identical between warm and cold runs of the same design.
func Fingerprint(rep *Report) string { return core.Fingerprint(rep) }

// CheckFlat runs the traditional mask-level baseline checker.
func CheckFlat(d *Design, tc *Technology, opts FlatOptions) (*FlatReport, error) {
	return flat.Check(d, tc, opts)
}

// ExtractNetlist generates the hierarchical net list with consistency
// issues.
func ExtractNetlist(d *Design, tc *Technology) (*Netlist, []NetlistIssue, error) {
	return netlist.Extract(d, tc)
}

// ProcessModel returns the default Gaussian exposure model (σ = λ/2,
// print-at-drawn-edge threshold).
func ProcessModel() Model { return process.DefaultModel() }

// NewChip generates a rows×cols inverter-array workload chip.
func NewChip(tc *Technology, name string, rows, cols int) *Chip {
	return workload.NewChip(tc, name, rows, cols)
}

// NewCMOSChip generates a rows×cols CMOS inverter-array workload chip for
// the deck-defined CMOS technology.
func NewCMOSChip(tc *Technology, name string, rows, cols int) *CMOSChip {
	return workload.NewCMOSChip(tc, name, rows, cols)
}

// NewChipUnique generates the inverter-array chip with one distinct row
// definition per row — the many-definitions workload the incremental
// engine's single-symbol-edit experiments measure.
func NewChipUnique(tc *Technology, name string, rows, cols int) *Chip {
	return workload.NewChipUnique(tc, name, rows, cols)
}

// InjectErrors plants n seeded ground-truth errors into a chip.
func InjectErrors(c *Chip, n int, seed int64) []Injected {
	return workload.InjectErrors(c, n, seed)
}

// Pathologies returns the paper-figure pathology library.
func Pathologies() []Pathology { return workload.AllPathologies() }

// ScoreAgainstGroundTruth classifies a DIC report against injected errors.
func ScoreAgainstGroundTruth(injected []Injected, rep *Report) Outcome {
	return eval.ScoreDIC(injected, rep)
}
