package tech

// Legacy hand-built constructors, kept verbatim as the deck-parity
// reference: the deck-loaded technologies must be deep-equal to them
// (deck_test.go), and a checked chip's fingerprint must be byte-identical
// either way (parity_test.go, which reaches them through the exports
// below).

var (
	NMOSFromCode    = nmosFromCode
	BipolarFromCode = bipolarFromCode
)

// nmosFromCode is the legacy hand-built constructor. All dimensions are
// multiples of λ/2 so every rule is exact on the centimicron grid.
func nmosFromCode() *Technology {
	const lam = 250
	t := New("nmos-2.5um", lam)

	d := t.AddLayer(Layer{Name: NMOSDiff, CIF: "ND", Role: RoleDiffusion, MinWidth: 2 * lam, MinSpace: 3 * lam})
	p := t.AddLayer(Layer{Name: NMOSPoly, CIF: "NP", Role: RolePoly, MinWidth: 2 * lam, MinSpace: 2 * lam})
	m := t.AddLayer(Layer{Name: NMOSMetal, CIF: "NM", Role: RoleMetal, MinWidth: 3 * lam, MinSpace: 3 * lam})
	c := t.AddLayer(Layer{Name: NMOSContact, CIF: "NC", Role: RoleContact, MinWidth: 2 * lam, MinSpace: 2 * lam})
	i := t.AddLayer(Layer{Name: NMOSImplant, CIF: "NI", Role: RoleImplant, MinWidth: 2 * lam, MinSpace: 0})
	b := t.AddLayer(Layer{Name: NMOSBuried, CIF: "NB", Role: RoleBuried, MinWidth: 2 * lam, MinSpace: 0})

	// Figure 12: the upper-triangular interaction matrix with same-net and
	// different-net subcases. Cells left unset are the paper's "not
	// necessary" cases; notes record why, for the E11 audit.
	t.SetSpacing(d, d, SpacingRule{
		DiffNet: 3 * lam, SameNet: 0, ExemptRelated: true,
		Note: "diffusion spacing; same net exempt (Fig 5a) unless resistor",
	})
	t.SetSpacing(p, p, SpacingRule{
		DiffNet: 2 * lam, SameNet: 0, ExemptRelated: true,
		Note: "poly spacing; same net exempt",
	})
	t.SetSpacing(m, m, SpacingRule{
		DiffNet: 3 * lam, SameNet: 0,
		Note: "metal spacing; same net exempt",
	})
	t.SetSpacing(d, p, SpacingRule{
		DiffNet: 1 * lam, SameNet: 1 * lam, ExemptRelated: true,
		Note: "poly to unrelated diffusion; transistor-related exempt",
	})
	t.SetSpacing(c, c, SpacingRule{
		DiffNet: 2 * lam, SameNet: 2 * lam,
		Note: "contact cut spacing between separate symbols",
	})
	// Unset cells with audit notes (explicit zero rules for the E11 table).
	t.SetSpacing(d, m, SpacingRule{Note: "no rule between metal and diffusion (paper)"})
	t.SetSpacing(p, m, SpacingRule{Note: "no rule between metal and poly"})
	t.SetSpacing(d, c, SpacingRule{Note: "contact rules live in primitive symbols"})
	t.SetSpacing(p, c, SpacingRule{Note: "contact rules live in primitive symbols"})
	t.SetSpacing(m, c, SpacingRule{Note: "contact enclosure checked in symbols"})
	t.SetSpacing(d, i, SpacingRule{Note: "implant rules live in primitive symbols", ExemptRelated: true})
	t.SetSpacing(p, i, SpacingRule{Note: "implant rules live in primitive symbols", ExemptRelated: true})
	t.SetSpacing(i, i, SpacingRule{Note: "implant merging is harmless"})
	t.SetSpacing(d, b, SpacingRule{Note: "buried rules live in primitive symbols", ExemptRelated: true})
	t.SetSpacing(p, b, SpacingRule{Note: "buried rules live in primitive symbols", ExemptRelated: true})
	t.SetSpacing(b, b, SpacingRule{DiffNet: 2 * lam, Note: "buried window spacing"})

	// Geometric rule classes beyond pairwise spacing (Mead–Conway λ rules):
	// region width over a definition's merged geometry, minimum metal
	// island area, and the directed contact/gate margins.
	t.SetWidthRule(d, LayerRule{Min: 2 * lam, Note: "region width over merged diffusion"})
	t.SetWidthRule(p, LayerRule{Min: 2 * lam, Note: "region width over merged poly"})
	t.SetWidthRule(m, LayerRule{Min: 3 * lam, Note: "region width over merged metal"})
	t.SetAreaRule(m, LayerRule{Min: 10 * lam * lam, Note: "minimum metal island area"})
	t.SetCrossRule(CrossEnclose, m, c, CrossRule{Margin: 1 * lam, Note: "metal pad over contact cut"})
	t.SetCrossRule(CrossOverlap, p, d, CrossRule{Margin: 2 * lam, Note: "gate channel overlap"})
	t.SetCrossRule(CrossExtend, p, d, CrossRule{Margin: 2 * lam, Note: "gate poly past channel (Fig 8)"})

	// Device types. Params are the margins the class checkers consume.
	t.AddDevice(DevNMOSEnh, DeviceSpec{
		Class:    "mos-transistor",
		Describe: "enhancement nMOS transistor (poly gate over diffusion)",
		Params: map[string]int64{
			"gate-extension": 2 * lam, // poly past channel (Figs 8, 14)
			"sd-extension":   2 * lam, // diffusion past channel each side
		},
	})
	t.AddDevice(DevNMOSDep, DeviceSpec{
		Class:     "mos-transistor",
		Describe:  "depletion nMOS transistor (implanted channel)",
		Depletion: true,
		Params: map[string]int64{
			"gate-extension":  2 * lam,
			"sd-extension":    2 * lam,
			"implant-overlap": 3 * lam / 2, // implant beyond gate, 1.5λ
		},
	})
	t.AddDevice(DevContactDiff, DeviceSpec{
		Class:    "contact",
		Describe: "metal to diffusion contact",
		Params: map[string]int64{
			"cut-size":        2 * lam,
			"metal-enclosure": 1 * lam,
			"lower-enclosure": 1 * lam,
		},
	})
	t.AddDevice(DevContactPoly, DeviceSpec{
		Class:    "contact",
		Describe: "metal to poly contact",
		Params: map[string]int64{
			"cut-size":        2 * lam,
			"metal-enclosure": 1 * lam,
			"lower-enclosure": 1 * lam,
		},
	})
	t.AddDevice(DevButting, DeviceSpec{
		Class:    "butting-contact",
		Describe: "poly-diffusion butting contact (Figure 7, legal)",
		Params: map[string]int64{
			"cut-size":        2 * lam,
			"metal-enclosure": 1 * lam,
			"overlap":         1 * lam, // poly/diffusion mutual overlap under cut
		},
	})
	t.AddDevice(DevBuried, DeviceSpec{
		Class:    "buried-contact",
		Describe: "poly-diffusion buried contact (overlap-of-overlap rules)",
		Params: map[string]int64{
			"buried-overlap": 1 * lam, // buried window beyond poly∩diff
		},
	})
	t.AddDevice(DevResistorD, DeviceSpec{
		Class:    "resistor",
		Describe: "diffusion resistor; spacing NOT exempt on same net (Fig 5b)",
		Params: map[string]int64{
			"min-length": 4 * lam,
		},
	})
	t.AddDevice(DevNMOSPullup, DeviceSpec{
		Class:     "pullup",
		Describe:  "depletion pullup with buried gate-to-source tie",
		Depletion: true,
		Params: map[string]int64{
			"gate-extension":  2 * lam,
			"sd-extension":    2 * lam,
			"implant-overlap": 3 * lam / 2,
			"buried-overlap":  1 * lam,
		},
	})

	t.PowerNets = []string{"VDD", "vdd"}
	t.GroundNets = []string{"GND", "gnd", "VSS", "vss"}
	return t
}

// bipolarFromCode is the legacy hand-built constructor.
func bipolarFromCode() *Technology {
	const u = 100
	t := New("bipolar-demo", 0)

	iso := t.AddLayer(Layer{Name: BipIso, CIF: "BI", Role: RoleIsolation, MinWidth: 4 * u, MinSpace: 6 * u})
	base := t.AddLayer(Layer{Name: BipBase, CIF: "BB", Role: RoleBase, MinWidth: 4 * u, MinSpace: 6 * u})
	em := t.AddLayer(Layer{Name: BipEmitter, CIF: "BE", Role: RoleEmitter, MinWidth: 3 * u, MinSpace: 4 * u})
	c := t.AddLayer(Layer{Name: BipContact, CIF: "BC", Role: RoleContact, MinWidth: 2 * u, MinSpace: 2 * u})
	m := t.AddLayer(Layer{Name: BipMetal, CIF: "BM", Role: RoleMetal, MinWidth: 3 * u, MinSpace: 3 * u})

	t.SetSpacing(base, base, SpacingRule{
		DiffNet: 6 * u, SameNet: 0, ExemptRelated: true,
		Note: "base diffusion spacing",
	})
	// The Figure 6 rule: base (of a transistor) to isolation. The checker
	// overrides this per-device: transistor base must keep the spacing even
	// when shorted (error if touching), resistor base may touch legally.
	t.SetSpacing(base, iso, SpacingRule{
		DiffNet: 2 * u, SameNet: 2 * u,
		Note: "base to isolation; device-dependent (Fig 6)",
	})
	t.SetSpacing(iso, iso, SpacingRule{Note: "isolation merges freely"})
	t.SetSpacing(em, em, SpacingRule{DiffNet: 4 * u, Note: "emitter spacing"})
	t.SetSpacing(em, base, SpacingRule{ExemptRelated: true, Note: "emitter sits in base (checked in symbol)"})
	t.SetSpacing(em, iso, SpacingRule{DiffNet: 4 * u, Note: "emitter to isolation"})
	t.SetSpacing(m, m, SpacingRule{DiffNet: 3 * u, Note: "metal spacing"})
	t.SetSpacing(c, c, SpacingRule{DiffNet: 2 * u, Note: "contact spacing"})
	t.SetSpacing(base, m, SpacingRule{Note: "no rule"})
	t.SetSpacing(iso, m, SpacingRule{Note: "no rule"})

	// Geometric rule classes beyond pairwise spacing, in raw centimicrons.
	t.SetWidthRule(iso, LayerRule{Min: 4 * u, Note: "isolation web region width"})
	t.SetCrossRule(CrossEnclose, base, em, CrossRule{Margin: 1 * u, Note: "base past emitter, judged over merged geometry"})

	t.AddDevice(DevNPN, DeviceSpec{
		Class:    "npn-transistor",
		Describe: "npn transistor: emitter within base; base must not touch isolation",
		Params: map[string]int64{
			"emitter-enclosure": 1 * u, // base beyond emitter
			"iso-clearance":     2 * u, // base to isolation clearance
		},
	})
	t.AddDevice(DevResistorBase, DeviceSpec{
		Class:    "resistor",
		Describe: "base-diffusion resistor; may legally tie to isolation (Fig 6b)",
		Params: map[string]int64{
			"min-length": 6 * u,
		},
	})
	t.AddDevice(DevBipContact, DeviceSpec{
		Class:    "contact",
		Describe: "metal contact",
		Params: map[string]int64{
			"cut-size":        2 * u,
			"metal-enclosure": 1 * u,
			"lower-enclosure": 1 * u,
		},
	})

	t.PowerNets = []string{"VCC", "vcc"}
	t.GroundNets = []string{"GND", "gnd"}
	return t
}
