// Package tech describes fabrication technologies for the design-integrity
// checker: mask layers with their width rules, the layer-interaction
// spacing matrix of the paper's Figure 12 (upper-triangular, with same-net
// and different-net subcases), and the device types that primitive symbols
// may declare, with the parameters their internal checks need.
//
// A technology is built once from its rule deck (FromDeck) and never
// changes after. Three are shipped as embedded decks: a λ-based
// silicon-gate nMOS process in the Mead–Conway style (the paper's running
// example, Figure 12 uses its D, P, M, C layers), a p-well CMOS process,
// and a simplified bipolar process for the device-dependent rules of
// Figure 6 (transistor base vs. resistor base against isolation).
package tech

import "fmt"

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
// technology tags each layer with at most one role; the deck loader
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

// Roles returns every layer role the deck loader and device rules understand.
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

// Cross is one directed cross-layer rule: (kind, A, B) and the margin;
// unlike LayerPair the (A, B) order is significant.
type Cross struct {
	Kind   CrossKind
	A, B   LayerID
	Margin int64
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
// the layers the rule table's role probes do.
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

// Technology is a complete process description, built once from its rule
// deck (FromDeck) and immutable after: concurrent checks share one value.
// Beside the layer and device tables it holds the deck's rules as dense
// tables indexed by layer id, so the pair adjudication hot path — millions
// of calls per chip — never touches a map or matches a layer name.
type Technology struct {
	Name    string
	Lambda  int64 // scale unit in centimicrons (0 if not λ-based)
	layers  []Layer
	byName  map[string]LayerID
	byCIF   map[string]LayerID
	devices map[string]DeviceSpec

	// power and ground are the net names the non-geometric construction
	// rules treat as rails.
	power, ground []string

	// rules is the Figure 12 matrix, n×n with both orientations filled;
	// interacts[a] has bit b set when a pair on layers (a, b) needs
	// adjudication (a non-zero cell or poly over diffusion). deck.MaxLayers
	// is 64, so one word covers a row.
	rules      []SpacingRule
	interacts  []uint64
	maxSpacing int64

	// Role-resolved probe layers for the device-dependent rules (NoLayer
	// when the process has none).
	polyID, isoID, cutID LayerID
	isDiff               []bool // layers with the diffusion role
	anyDiff              bool

	// Single-layer minima per layer (0 = no rule) and the directed
	// cross-layer rules in (kind, a, b) order. Cross rules are adjudicated
	// per definition over merged own geometry, not through the pair sweep,
	// so they leave interacts alone.
	widthMin, areaMin []int64
	crosses           []Cross
	hasLayerRules     bool
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

// Rule returns the interaction-matrix cell for a layer pair, in either
// order, without normalization or hashing: one multiply and one index.
// Unset cells are the zero rule. The returned pointer aliases the table;
// callers must not mutate it.
func (t *Technology) Rule(a, b LayerID) *SpacingRule {
	return &t.rules[int(a)*len(t.layers)+int(b)]
}

// MaxSpacing returns the largest spacing value anywhere in the matrix —
// the interaction search radius for candidate generation.
func (t *Technology) MaxSpacing() int64 { return t.maxSpacing }

// Interacts reports whether a candidate pair on the two layers can ever
// reach adjudication: a non-zero spacing cell or a device-rule pair. The
// interaction engine consults this before bucketing candidate pairs, so
// rule-free pairs never leave the sweep.
func (t *Technology) Interacts(a, b LayerID) bool {
	return t.interacts[a]&(1<<b) != 0
}

// Poly returns the poly-role layer (gate material), if any.
func (t *Technology) Poly() (LayerID, bool) { return t.polyID, t.polyID != NoLayer }

// IsDiffusion reports whether the layer carries the diffusion role.
func (t *Technology) IsDiffusion(l LayerID) bool { return t.isDiff[l] }

// HasDiffusion reports whether any layer carries the diffusion role.
func (t *Technology) HasDiffusion() bool { return t.anyDiff }

// Isolation returns the isolation-role layer (base-keepout probe), if any.
func (t *Technology) Isolation() (LayerID, bool) { return t.isoID, t.isoID != NoLayer }

// Cut returns the contact-role layer (gate-keepout probe), if any.
func (t *Technology) Cut() (LayerID, bool) { return t.cutID, t.cutID != NoLayer }

// WidthMin returns the minimum region width for a layer (0 = no rule).
func (t *Technology) WidthMin(l LayerID) int64 { return t.widthMin[l] }

// AreaMin returns the minimum island area for a layer (0 = no rule).
func (t *Technology) AreaMin(l LayerID) int64 { return t.areaMin[l] }

// CrossRules returns every directed cross-layer rule in deterministic
// (kind, a, b) order. The returned slice aliases the table; callers must
// not mutate it.
func (t *Technology) CrossRules() []Cross { return t.crosses }

// HasLayerRules reports whether any width/area/cross rule is present, so
// rule-free technologies skip the definition-level rule stage scan.
func (t *Technology) HasLayerRules() bool { return t.hasLayerRules }

// Device returns the spec for a declared device type.
func (t *Technology) Device(name string) (DeviceSpec, bool) {
	s, ok := t.devices[name]
	return s, ok
}

// IsPower reports whether the net name is a power rail.
func (t *Technology) IsPower(net string) bool { return contains(t.power, net) }

// IsGround reports whether the net name is a ground rail.
func (t *Technology) IsGround(net string) bool { return contains(t.ground, net) }

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
	for i := range t.layers {
		for j := i; j < len(t.layers); j++ {
			rule := *t.Rule(LayerID(i), LayerID(j))
			out = append(out, MatrixCell{
				Pair:    Pair(LayerID(i), LayerID(j)),
				Names:   fmt.Sprintf("%s-%s", t.layers[i].CIF, t.layers[j].CIF),
				Rule:    rule,
				Checked: rule.DiffNet > 0 || rule.SameNet > 0,
			})
		}
	}
	return out
}
