package tech

// Simplified bipolar process for the device-dependent rules of Figure 6:
// a base-diffusion region belonging to a transistor must never touch the
// isolation diffusion around it (that destroys the device), while the very
// same base diffusion used as a resistor may legally connect to isolation
// (the common way to tie one end of a resistor to ground).
//
// Mask-level checkers cannot express this distinction — the two cases are
// identical geometry on identical layers — which is precisely the paper's
// argument for device-aware checking.
//
// The process is defined by decks/bipolar.deck; Bipolar is a thin loader
// over the embedded text. Its checking behaviour is pinned by the bipolar
// designs in internal/core/testdata/fingerprints.golden, and its deck form
// by TestToDeckRoundTrip.

// Bipolar layer name constants.
const (
	BipIso     = "isolation"
	BipBase    = "base"
	BipEmitter = "emitter"
	BipContact = "contact"
	BipMetal   = "metal"
)

// Bipolar device type names.
const (
	DevNPN          = "npn"           // bipolar transistor
	DevResistorBase = "resistor-base" // base-diffusion resistor
	DevBipContact   = "contact-bip"   // metal contact
)

func init() { Register("bipolar", Bipolar) }

// Bipolar builds the simplified bipolar technology of Figure 6 from its
// embedded rule deck (decks/bipolar.deck). Dimensions use a 100
// centimicron (1 µm) unit.
func Bipolar() *Technology { return mustParseDeck(bipolarDeck) }
