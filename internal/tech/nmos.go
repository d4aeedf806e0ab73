package tech

// Silicon-gate nMOS process in the Mead–Conway style used throughout the
// paper (Figures 7, 8, 11, 12, 14). λ = 250 centimicrons (2.5 µm process).
//
// The process is defined by decks/nmos.deck; NMOS shares the technology
// built from the embedded text. Its checking behaviour is pinned by the
// nMOS designs in internal/core/testdata/fingerprints.golden, and its rule
// table is read back against the deck rows by TestCompiledMatchesMaps.

// nMOS layer name constants (human names).
const (
	NMOSDiff    = "diffusion"
	NMOSPoly    = "poly"
	NMOSMetal   = "metal"
	NMOSContact = "contact"
	NMOSImplant = "implant"
	NMOSBuried  = "buried"
)

// nMOS device type names (declared by primitive symbols via 9D).
const (
	DevNMOSEnh     = "nmos-enh"     // enhancement transistor
	DevNMOSDep     = "nmos-dep"     // depletion transistor (implant over gate)
	DevContactDiff = "contact-diff" // metal-diffusion contact
	DevContactPoly = "contact-poly" // metal-poly contact
	DevButting     = "butting-contact"
	DevBuried      = "buried-contact"
	DevResistorD   = "resistor-diff" // diffusion resistor (Figure 5b)
	// DevNMOSPullup is the classic depletion pullup with a buried-contact
	// gate-to-source tie — a compound primitive symbol, exactly the kind of
	// "elemental symbol" the paper expects cell libraries to declare.
	DevNMOSPullup = "nmos-pullup"
)

// NMOS returns the silicon-gate nMOS technology, built from its embedded
// rule deck (decks/nmos.deck) once per process and shared.
var NMOS = shipped(nmosDeck)
