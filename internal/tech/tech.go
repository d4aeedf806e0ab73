// Package tech describes fabrication technologies for the design-integrity
// checker: mask layers with their width rules, the layer-interaction
// spacing matrix of the paper's Figure 12 (upper-triangular, with same-net
// and different-net subcases), and the device types that primitive symbols
// may declare, with the parameters their internal checks need.
//
// Two technologies are shipped: a λ-based silicon-gate nMOS process in the
// Mead–Conway style (the paper's running example, Figure 12 uses its D, P,
// M, C layers) and a simplified bipolar process for the device-dependent
// rules of Figure 6 (transistor base vs. resistor base against isolation).
package tech

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// LayerID identifies a mask layer within a technology.
type LayerID uint8

// NoLayer is the invalid layer id.
const NoLayer LayerID = 0xFF

// Layer describes one mask layer.
type Layer struct {
	ID       LayerID
	Name     string // human name, e.g. "diffusion"
	CIF      string // CIF layer name, e.g. "ND"
	Role     string // semantic role for device rules (see Roles; "" = none)
	MinWidth int64  // minimum feature width (centimicrons); 0 = unchecked
	MinSpace int64  // default same-layer different-net spacing
}

// Layer roles: the semantic hooks device-dependent rules attach to. A
// technology tags each layer with at most one role; the compiled form
// resolves them once so the checker never matches layer names in hot
// paths. Roles keep the device rules technology-parameterized: the
// accidental-transistor check, for example, fires for poly crossing any
// diffusion-role layer, whatever the process calls them.
const (
	RoleDiffusion = "diffusion" // transistor source/drain material
	RolePoly      = "poly"      // transistor gate material
	RoleMetal     = "metal"     // interconnect metal
	RoleContact   = "contact"   // contact cuts (gate-keepout probe layer)
	RoleImplant   = "implant"   // depletion implant
	RoleBuried    = "buried"    // buried-contact window
	RoleWell      = "well"      // CMOS well
	RoleIsolation = "isolation" // bipolar isolation (base-keepout probe layer)
	RoleBase      = "base"      // bipolar base diffusion
	RoleEmitter   = "emitter"   // bipolar emitter diffusion
)

// Roles returns every layer role the compiler and device rules understand.
func Roles() []string {
	return []string{
		RoleDiffusion, RolePoly, RoleMetal, RoleContact, RoleImplant,
		RoleBuried, RoleWell, RoleIsolation, RoleBase, RoleEmitter,
	}
}

// UseRoles returns the roles a device "use" binding may name: every layer
// role plus the device-local pseudo-roles — "lower" for a contact's lower
// conductor and "body" for a resistor body — which bind a layer for one
// device class without tagging the layer itself.
func UseRoles() []string {
	return append(Roles(), "lower", "body")
}

// SpacingRule is one cell of the Figure 12 interaction matrix: the spacing
// required between elements of a layer pair, split into the same-net and
// different-net subcases. A zero entry means "no check required" — the
// paper's point is that most cells are zero. TransistorRelated controls the
// device subcase: when true, elements related through the same transistor
// are exempt even on different nets (gate and implant cannot be assigned to
// a net).
type SpacingRule struct {
	DiffNet       int64  // required spacing when nets differ (0 = none)
	SameNet       int64  // required spacing when nets are equal (0 = none)
	ExemptRelated bool   // skip when both elements belong to the same device
	Note          string // why the cell is or is not checked (audit output)
}

// LayerRule is one single-layer geometric rule value: a minimum region
// width in centimicrons (width class) or a minimum island area in square
// centimicrons (area class), with its audit note. Unlike Layer.MinWidth —
// a per-element check in the flat baseline — these rules judge a
// definition's merged geometry.
type LayerRule struct {
	Min  int64
	Note string
}

// CrossKind enumerates the directed cross-layer rule classes.
type CrossKind uint8

// Cross-layer rule kinds, in deck statement order.
const (
	// CrossEnclose: A must enclose B by the margin on all sides.
	CrossEnclose CrossKind = iota
	// CrossOverlap: wherever A and B overlap, the overlap must be at
	// least the margin wide.
	CrossOverlap
	// CrossExtend: A must extend at least the margin past B around their
	// crossing (the Figure 8 gate-extension rule, generalized).
	CrossExtend

	numCrossKinds
)

func (k CrossKind) String() string {
	switch k {
	case CrossEnclose:
		return "enclose"
	case CrossOverlap:
		return "overlap"
	case CrossExtend:
		return "extend"
	}
	return fmt.Sprintf("cross(%d)", uint8(k))
}

// CrossRule is one directed cross-layer rule: the (kind, A, B) key lives
// beside it in the technology's rule table.
type CrossRule struct {
	Margin int64
	Note   string
}

// crossKey identifies a directed cross-layer rule; unlike LayerPair the
// (a, b) order is significant.
type crossKey struct {
	kind CrossKind
	a, b LayerID
}

// LayerPair is a normalized (A <= B) unordered pair of layers.
type LayerPair struct {
	A, B LayerID
}

// Pair normalizes a layer pair.
func Pair(a, b LayerID) LayerPair {
	if a > b {
		a, b = b, a
	}
	return LayerPair{a, b}
}

// DeviceSpec declares a device type that primitive symbols may carry.
type DeviceSpec struct {
	Class    string           // checker registry key, e.g. "mos-transistor"
	Params   map[string]int64 // rule margins used by the class checker
	Describe string           // one-line human description

	// Layers binds the class checker's semantic roles to concrete layers
	// for this device type (e.g. a p-channel transistor binding
	// "diffusion" to the p-diffusion layer). Unbound roles fall back to
	// the technology's role-tagged layer.
	Layers map[string]string

	// Depletion marks the device for the depletion-to-ground construction
	// rule (the paper's rule 4). It is deck data, not code, so any process
	// can opt its device types in.
	Depletion bool
}

// LayerFor resolves a device-rule role to a layer: the device's explicit
// binding first, then the technology's role-tagged layer. A layer takes a
// role only from its tag, never from its name, so device analysis sees
// the layers the compiled rule table does (Compile).
func (t *Technology) LayerFor(spec DeviceSpec, role string) (LayerID, bool) {
	if name, ok := spec.Layers[role]; ok {
		if id, ok := t.byName[name]; ok {
			return id, true
		}
		return NoLayer, false
	}
	for i := range t.layers {
		if t.layers[i].Role == role {
			return t.layers[i].ID, true
		}
	}
	return NoLayer, false
}

// Technology is a complete process description.
type Technology struct {
	Name    string
	Lambda  int64 // scale unit in centimicrons (0 if not λ-based)
	layers  []Layer
	byName  map[string]LayerID
	byCIF   map[string]LayerID
	spacing map[LayerPair]SpacingRule
	widths  map[LayerID]LayerRule
	areas   map[LayerID]LayerRule
	crosses map[crossKey]CrossRule
	devices map[string]DeviceSpec

	// Rails are the net names treated as power and ground by the
	// non-geometric construction rules.
	PowerNets  []string
	GroundNets []string

	// compiled caches the frozen checker-facing form; any mutation of the
	// layer set, spacing matrix, or device table invalidates it. The slot
	// is atomic so technologies shared by concurrent Check calls are safe
	// (mutating a technology concurrently with checking never was).
	compiled atomic.Pointer[Compiled]
}

// New creates an empty technology.
func New(name string, lambda int64) *Technology {
	return &Technology{
		Name:    name,
		Lambda:  lambda,
		byName:  make(map[string]LayerID),
		byCIF:   make(map[string]LayerID),
		spacing: make(map[LayerPair]SpacingRule),
		widths:  make(map[LayerID]LayerRule),
		areas:   make(map[LayerID]LayerRule),
		crosses: make(map[crossKey]CrossRule),
		devices: make(map[string]DeviceSpec),
	}
}

// AddLayer registers a layer and returns its id.
func (t *Technology) AddLayer(l Layer) LayerID {
	id := LayerID(len(t.layers))
	l.ID = id
	t.layers = append(t.layers, l)
	t.byName[l.Name] = id
	t.byCIF[l.CIF] = id
	t.compiled.Store(nil)
	return id
}

// Layers returns all layers in id order.
func (t *Technology) Layers() []Layer { return t.layers }

// NumLayers returns the number of layers.
func (t *Technology) NumLayers() int { return len(t.layers) }

// Layer returns the layer with the given id.
func (t *Technology) Layer(id LayerID) Layer {
	return t.layers[id]
}

// LayerByName looks a layer up by human name.
func (t *Technology) LayerByName(name string) (LayerID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// LayerByCIF looks a layer up by CIF name.
func (t *Technology) LayerByCIF(name string) (LayerID, bool) {
	id, ok := t.byCIF[name]
	return id, ok
}

// SetSpacing sets the interaction-matrix cell for a layer pair.
func (t *Technology) SetSpacing(a, b LayerID, rule SpacingRule) {
	t.spacing[Pair(a, b)] = rule
	t.compiled.Store(nil)
}

// Spacing returns the interaction-matrix cell for a layer pair; the zero
// rule (no checks) is returned for unset cells.
func (t *Technology) Spacing(a, b LayerID) SpacingRule {
	return t.spacing[Pair(a, b)]
}

// SetWidthRule sets the minimum-region-width rule for a layer.
func (t *Technology) SetWidthRule(l LayerID, r LayerRule) {
	t.widths[l] = r
	t.compiled.Store(nil)
}

// WidthRuleFor returns the region-width rule for a layer, if set.
func (t *Technology) WidthRuleFor(l LayerID) (LayerRule, bool) {
	r, ok := t.widths[l]
	return r, ok
}

// SetAreaRule sets the minimum-island-area rule for a layer.
func (t *Technology) SetAreaRule(l LayerID, r LayerRule) {
	t.areas[l] = r
	t.compiled.Store(nil)
}

// AreaRuleFor returns the island-area rule for a layer, if set.
func (t *Technology) AreaRuleFor(l LayerID) (LayerRule, bool) {
	r, ok := t.areas[l]
	return r, ok
}

// SetCrossRule sets a directed cross-layer rule; (a, b) order matters.
func (t *Technology) SetCrossRule(kind CrossKind, a, b LayerID, r CrossRule) {
	t.crosses[crossKey{kind, a, b}] = r
	t.compiled.Store(nil)
}

// CrossRuleFor returns a directed cross-layer rule, if set.
func (t *Technology) CrossRuleFor(kind CrossKind, a, b LayerID) (CrossRule, bool) {
	r, ok := t.crosses[crossKey{kind, a, b}]
	return r, ok
}

// MaxSpacing returns the largest spacing value anywhere in the matrix —
// the interaction search radius for candidate generation. The value is
// computed once at freeze time (see Compile); callers in per-check hot
// paths no longer rescan the matrix.
func (t *Technology) MaxSpacing() int64 {
	return t.Compile().MaxSpacing()
}

// AddDevice registers a device type under the given type name (the name a
// primitive symbol declares with the 9D extension).
func (t *Technology) AddDevice(name string, spec DeviceSpec) {
	t.devices[name] = spec
	t.compiled.Store(nil)
}

// Device returns the spec for a declared device type.
func (t *Technology) Device(name string) (DeviceSpec, bool) {
	s, ok := t.devices[name]
	return s, ok
}

// DeviceTypes returns the registered type names, sorted.
func (t *Technology) DeviceTypes() []string {
	out := make([]string, 0, len(t.devices))
	for n := range t.devices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsPower reports whether the net name is a power rail.
func (t *Technology) IsPower(net string) bool { return contains(t.PowerNets, net) }

// IsGround reports whether the net name is a ground rail.
func (t *Technology) IsGround(net string) bool { return contains(t.GroundNets, net) }

// IsRail reports whether the net is power or ground.
func (t *Technology) IsRail(net string) bool { return t.IsPower(net) || t.IsGround(net) }

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// MatrixCell describes one audited cell of the interaction matrix for
// reporting (experiment E11): the paper's Figure 12 enumeration.
type MatrixCell struct {
	Pair    LayerPair
	Names   string // "P-D" style label
	Rule    SpacingRule
	Checked bool // any non-zero subcase
}

// InteractionMatrix enumerates every upper-triangular layer pair with its
// rule, including unset (skipped) cells, in deterministic order.
func (t *Technology) InteractionMatrix() []MatrixCell {
	var out []MatrixCell
	for i := 0; i < len(t.layers); i++ {
		for j := i; j < len(t.layers); j++ {
			p := Pair(LayerID(i), LayerID(j))
			rule := t.spacing[p]
			out = append(out, MatrixCell{
				Pair:    p,
				Names:   fmt.Sprintf("%s-%s", t.layers[i].CIF, t.layers[j].CIF),
				Rule:    rule,
				Checked: rule.DiffNet > 0 || rule.SameNet > 0,
			})
		}
	}
	return out
}
