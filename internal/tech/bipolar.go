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
// The process is defined by decks/bipolar.deck; Bipolar shares the
// technology built from the embedded text. Its checking behaviour is pinned
// by the bipolar designs in internal/core/testdata/fingerprints.golden, and
// its rule table is read back against the deck rows by
// TestCompiledMatchesMaps.

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

// Bipolar returns the simplified bipolar technology of Figure 6, built
// from its embedded rule deck (decks/bipolar.deck) once per process and
// shared. Dimensions use a 100 centimicron (1 µm) unit.
var Bipolar = shipped(bipolarDeck)
