// Package deck defines the loadable rule-deck format: a line-oriented text
// description of a fabrication technology — layers, the Figure 12
// interaction matrix, device types, and supply rails — that can be parsed,
// validated, written back canonically, and built into a checking
// technology (see internal/tech.FromDeck).
//
// The paper's central claim is that the checker is technology-parameterized:
// the interaction matrix and the device rules are data, not code. A deck is
// that data as an artifact users can author, audit, diff, and swap. The
// package is deliberately free of repository imports: it describes syntax
// and structure only, so the technology loader can layer semantics on top
// without an import cycle.
//
// # Format
//
// A deck is a sequence of statements, one per line. '#' starts a comment
// running to end of line; blank lines are ignored. Dimension values are
// integers in centimicrons, or λ-expressions like "3L" or "1.5L" which
// scale by the deck's lambda (λ-expressions require lambda > 0 and must
// resolve to whole centimicrons).
//
//	tech <name> [lambda=<int>]
//	layer <name> cif=<code> [role=<role>] [width=<dim>] [space=<dim>]
//	space <layerA> <layerB> [diff=<dim>] [same=<dim>] [exempt-related] [note="..."]
//	width <layer> <dim> [note="..."]
//	area <layer> <areadim> [note="..."]
//	enclose <outer> <inner> <dim> [note="..."]
//	overlap <layerA> <layerB> <dim> [note="..."]
//	extend <layerA> <layerB> <dim> [note="..."]
//	device <type> class=<class> [depletion] [describe="..."]
//	  param <key>=<dim>
//	  use <role>=<layer>
//	rail power <net>...
//	rail ground <net>...
//
// "param" and "use" lines bind to the most recent "device" statement.
// Every "space" cell names an unordered layer pair; cells with no spacing
// in either subcase document *why* no check is required via note="..." —
// the audit trail behind the paper's claim that most cells are empty.
//
// The five rule-class statements generalize the matrix beyond spacing.
// "width" and "area" are single-layer rules on a definition's merged
// geometry (a region-width minimum and a per-island area minimum; "area"
// takes an area dimension, where a λ-expression like "10L" means 10·λ²).
// "enclose", "overlap", and "extend" are directed cross-layer margins:
// the first layer must enclose the second by, overlap it by, or extend
// past it by the given margin. Layer order is significant, unlike "space".
package deck

import "fmt"

// Deck is the parsed form of one rule deck.
type Deck struct {
	// Name is the technology name, e.g. "nmos-2.5um".
	Name string
	// Lambda is the λ scale unit in centimicrons (0 if the deck is not
	// λ-based; λ-expressions are then illegal).
	Lambda int64

	Layers  []Layer
	Spaces  []Space
	Widths  []WidthRule
	Areas   []AreaRule
	Crosses []CrossRule
	Devices []Device

	PowerNets  []string
	GroundNets []string
}

// Layer is one "layer" statement.
type Layer struct {
	Name  string // human name, unique within the deck
	CIF   string // CIF layer code, unique within the deck
	Role  string // semantic role consumed by device rules ("" = none)
	Width int64  // minimum feature width (0 = unchecked)
	Space int64  // default same-layer spacing for the flat baseline
	Line  int    // source line, for diagnostics
}

// Space is one "space" statement: a cell of the interaction matrix.
type Space struct {
	A, B          string // layer names (unordered pair)
	DiffNet       int64  // required spacing when nets differ (0 = none)
	SameNet       int64  // required spacing when nets are equal (0 = none)
	ExemptRelated bool   // skip when the elements are related through a device
	Note          string // audit note: why the cell is or is not checked
	Line          int
}

// WidthRule is one "width" statement: a minimum region width applied to a
// definition's merged geometry on one layer. Unlike a layer's width=
// attribute (a per-element check in the flat baseline), this rule judges
// the union, catching interior narrowings no single element exhibits.
type WidthRule struct {
	Layer string // layer name
	Min   int64  // minimum region width in centimicrons
	Note  string // audit note
	Line  int
}

// AreaRule is one "area" statement: a minimum area for each connected
// island of a definition's merged geometry on one layer. The dimension is
// an area — a λ-expression like "10L" means 10·λ² square centimicrons.
type AreaRule struct {
	Layer   string // layer name
	MinArea int64  // minimum island area in square centimicrons
	Note    string // audit note
	Line    int
}

// Cross-rule kinds — the Kind field of CrossRule.
const (
	// KindEnclose: layer A must enclose layer B by Margin on all sides.
	KindEnclose = "enclose"
	// KindOverlap: wherever A and B overlap, the overlap must be at least
	// Margin wide.
	KindOverlap = "overlap"
	// KindExtend: A must extend at least Margin past B around their
	// crossing (the Figure 8 gate-extension rule, generalized).
	KindExtend = "extend"
)

// CrossRule is one "enclose", "overlap", or "extend" statement: a directed
// cross-layer margin. The (A, B) pair is ordered — enclose metal contact
// and enclose contact metal are different rules.
type CrossRule struct {
	Kind   string // KindEnclose, KindOverlap, or KindExtend
	A, B   string // layer names, ordered
	Margin int64  // margin in centimicrons
	Note   string // audit note
	Line   int
}

// Device is one "device" statement with its bound param/use lines.
type Device struct {
	Type      string // declared type name (the 9D key)
	Class     string // checker class, e.g. "mos-transistor"
	Describe  string // one-line human description
	Depletion bool   // participates in the depletion-to-ground rule
	Params    []Param
	Uses      []Use
	Line      int
}

// Param is one rule margin of a device.
type Param struct {
	Key   string
	Value int64
}

// Use binds a semantic layer role to a concrete layer for one device, e.g.
// a p-channel transistor declaring use diffusion=p-diffusion.
type Use struct {
	Role  string
	Layer string
}

// Severity grades a validation problem.
type Severity uint8

// Severities.
const (
	// Error problems make the deck unloadable.
	Error Severity = iota
	// Warning problems load but deserve attention (e.g. a silent cell
	// with no audit note).
	Warning
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Problem is one validation finding.
type Problem struct {
	Severity Severity
	Line     int
	Detail   string
}

func (p Problem) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("%s: line %d: %s", p.Severity, p.Line, p.Detail)
	}
	return fmt.Sprintf("%s: %s", p.Severity, p.Detail)
}

// Errors filters problems down to the unloadable ones.
func Errors(probs []Problem) []Problem {
	var out []Problem
	for _, p := range probs {
		if p.Severity == Error {
			out = append(out, p)
		}
	}
	return out
}

// LayerByName finds a layer statement by name.
func (d *Deck) LayerByName(name string) (*Layer, bool) {
	for i := range d.Layers {
		if d.Layers[i].Name == name {
			return &d.Layers[i], true
		}
	}
	return nil, false
}
