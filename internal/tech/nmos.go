package tech

// Silicon-gate nMOS process in the Mead–Conway style used throughout the
// paper (Figures 7, 8, 11, 12, 14). λ = 250 centimicrons (2.5 µm process).
//
// The process is defined by decks/nmos.deck; NMOS is a thin loader over
// the embedded deck text. Its checking behaviour is pinned by the nMOS
// designs in internal/core/testdata/fingerprints.golden, and its deck form
// by TestToDeckRoundTrip.

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

func init() { Register("nmos", NMOS) }

// NMOS builds the silicon-gate nMOS technology from its embedded rule
// deck (decks/nmos.deck).
func NMOS() *Technology { return mustParseDeck(nmosDeck) }
