package tech

// Compiled is the frozen, checker-facing form of a Technology: the
// interaction matrix as a dense table indexed by packed layer pair, the
// search radius precomputed, per-layer "interacts-with" sets packed into
// bitset rows, and the role-tagged layers the device-dependent rules
// probe (poly, diffusion, contact cuts, isolation) resolved to ids.
//
// The authoring form (AddLayer/SetSpacing/AddDevice over maps) stays
// convenient and order-independent; Compile freezes it once so the pair
// adjudication hot path — millions of calls per chip — never touches a map
// or matches a layer name.
type Compiled struct {
	n          int
	rules      []SpacingRule // n*n dense, both orientations filled
	maxSpacing int64

	// interacts is an n×n bit matrix in row-major words: row a starts at
	// a*stride, bit b of word b/64. Bit (a,b): the pair needs adjudication.
	interacts []uint64
	stride    int

	// Role-resolved probe layers for the device-dependent rules.
	polyID  LayerID
	hasPoly bool
	isDiff  []bool // layers with the diffusion role
	anyDiff bool
	isoID   LayerID
	hasIso  bool
	cutID   LayerID
	hasCut  bool

	// Single-layer rule slots beside the dense pairwise table, and the
	// directed cross-layer margins folded into the same packed-pair
	// (a*n+b) index. Cross rules are adjudicated per definition over
	// merged own geometry, not through the pair sweep, so they
	// deliberately leave the interacts bitsets untouched.
	widthMin      []int64                // per layer; 0 = no rule
	areaMin       []int64                // per layer; 0 = no rule
	cross         [numCrossKinds][]int64 // n*n dense, a*n+b, directed; 0 = no rule
	crossList     []CompiledCross        // deterministic (kind, a, b) walk order
	hasLayerRules bool
}

// CompiledCross is one directed cross-layer rule in the frozen form, in
// the deterministic order the definition-level rule stage walks.
type CompiledCross struct {
	Kind   CrossKind
	A, B   LayerID
	Margin int64
}

// Compile returns the frozen form, building it on first use after any
// mutation. The result is immutable and safe for concurrent readers;
// concurrent Compile calls on one Technology are safe too (the cache slot
// is atomic, and a duplicate build produces an identical value).
func (t *Technology) Compile() *Compiled {
	if c := t.compiled.Load(); c != nil {
		return c
	}
	n := len(t.layers)
	c := &Compiled{
		n:      n,
		rules:  make([]SpacingRule, n*n),
		stride: (n + 63) / 64,
		isDiff: make([]bool, n),
		polyID: NoLayer, isoID: NoLayer, cutID: NoLayer,
	}
	c.interacts = make([]uint64, n*c.stride)
	mark := func(a, b LayerID) {
		c.interacts[int(a)*c.stride+int(b)/64] |= 1 << (uint(b) % 64)
		c.interacts[int(b)*c.stride+int(a)/64] |= 1 << (uint(a) % 64)
	}
	for p, r := range t.spacing {
		if int(p.A) >= n || int(p.B) >= n {
			continue
		}
		c.rules[int(p.A)*n+int(p.B)] = r
		c.rules[int(p.B)*n+int(p.A)] = r
		if r.DiffNet > c.maxSpacing {
			c.maxSpacing = r.DiffNet
		}
		if r.SameNet > c.maxSpacing {
			c.maxSpacing = r.SameNet
		}
		if r.DiffNet > 0 || r.SameNet > 0 {
			mark(p.A, p.B)
		}
	}
	for i := range t.layers {
		id := t.layers[i].ID
		switch t.layers[i].Role {
		case RolePoly:
			c.polyID, c.hasPoly = id, true
		case RoleDiffusion:
			c.isDiff[id] = true
			c.anyDiff = true
		case RoleIsolation:
			c.isoID, c.hasIso = id, true
		case RoleContact:
			c.cutID, c.hasCut = id, true
		}
	}
	c.widthMin = make([]int64, n)
	c.areaMin = make([]int64, n)
	for l, r := range t.widths {
		if int(l) < n && r.Min > 0 {
			c.widthMin[l] = r.Min
			c.hasLayerRules = true
		}
	}
	for l, r := range t.areas {
		if int(l) < n && r.Min > 0 {
			c.areaMin[l] = r.Min
			c.hasLayerRules = true
		}
	}
	for k := CrossKind(0); k < numCrossKinds; k++ {
		c.cross[k] = make([]int64, n*n)
	}
	for key, r := range t.crosses {
		if int(key.a) >= n || int(key.b) >= n || r.Margin <= 0 {
			continue
		}
		c.cross[key.kind][int(key.a)*n+int(key.b)] = r.Margin
		c.hasLayerRules = true
	}
	for k := CrossKind(0); k < numCrossKinds; k++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if m := c.cross[k][a*n+b]; m > 0 {
					c.crossList = append(c.crossList, CompiledCross{
						Kind: k, A: LayerID(a), B: LayerID(b), Margin: m,
					})
				}
			}
		}
	}
	// The accidental-transistor rule (Figure 8) adjudicates poly over any
	// diffusion whether or not the pair carries a spacing cell, so those
	// pairs must survive the pre-bucketing interaction filter.
	if c.hasPoly && c.anyDiff {
		for d := 0; d < n; d++ {
			if c.isDiff[d] {
				mark(c.polyID, LayerID(d))
			}
		}
	}
	t.compiled.Store(c)
	return c
}

// NumLayers returns the compiled layer count.
func (c *Compiled) NumLayers() int { return c.n }

// Rule returns the interaction-matrix cell for a layer pair without
// normalization or hashing: one multiply and one index. The returned
// pointer aliases the compiled table; callers must not mutate it.
func (c *Compiled) Rule(a, b LayerID) *SpacingRule {
	return &c.rules[int(a)*c.n+int(b)]
}

// MaxSpacing returns the precomputed interaction search radius.
func (c *Compiled) MaxSpacing() int64 { return c.maxSpacing }

// Interacts reports whether a candidate pair on the two layers can ever
// reach adjudication: a non-zero spacing cell or a device-rule pair. The
// interaction engine consults this before bucketing candidate pairs, so
// rule-free pairs never leave the sweep.
func (c *Compiled) Interacts(a, b LayerID) bool {
	return c.interacts[int(a)*c.stride+int(b)/64]&(1<<(uint(b)%64)) != 0
}

// Poly returns the poly-role layer (gate material), if any.
func (c *Compiled) Poly() (LayerID, bool) { return c.polyID, c.hasPoly }

// IsDiffusion reports whether the layer carries the diffusion role.
func (c *Compiled) IsDiffusion(l LayerID) bool { return c.isDiff[l] }

// HasDiffusion reports whether any layer carries the diffusion role.
func (c *Compiled) HasDiffusion() bool { return c.anyDiff }

// Isolation returns the isolation-role layer (base-keepout probe), if any.
func (c *Compiled) Isolation() (LayerID, bool) { return c.isoID, c.hasIso }

// Cut returns the contact-role layer (gate-keepout probe), if any.
func (c *Compiled) Cut() (LayerID, bool) { return c.cutID, c.hasCut }

// WidthMin returns the minimum region width for a layer (0 = no rule).
func (c *Compiled) WidthMin(l LayerID) int64 { return c.widthMin[l] }

// AreaMin returns the minimum island area for a layer (0 = no rule).
func (c *Compiled) AreaMin(l LayerID) int64 { return c.areaMin[l] }

// CrossMargin returns the directed cross-layer margin for (kind, a, b)
// (0 = no rule), via the same packed-pair index the spacing table uses.
func (c *Compiled) CrossMargin(kind CrossKind, a, b LayerID) int64 {
	return c.cross[kind][int(a)*c.n+int(b)]
}

// CrossRules returns every directed cross-layer rule in deterministic
// (kind, a, b) order. The returned slice aliases the compiled form;
// callers must not mutate it.
func (c *Compiled) CrossRules() []CompiledCross { return c.crossList }

// HasLayerRules reports whether any width/area/cross rule is present, so
// rule-free technologies skip the definition-level rule stage scan.
func (c *Compiled) HasLayerRules() bool { return c.hasLayerRules }
