package tech

// Mead–Conway style p-well CMOS process, λ = 100 centimicrons (1 µm).
//
// Like nMOS and bipolar, decks/cmos.deck is the only definition of the
// process. The constants below are names for workload generators and tests — the rules themselves
// live entirely in the deck.

// CMOS layer name constants (human names).
const (
	CMOSWell    = "p-well"
	CMOSNDiff   = "n-diffusion"
	CMOSPDiff   = "p-diffusion"
	CMOSPoly    = "poly"
	CMOSContact = "contact"
	CMOSMetal   = "metal"
)

// CMOS device type names (declared by primitive symbols via 9D).
const (
	DevCMOSNMOS     = "cmos-nmos"     // n-channel transistor (in the p-well)
	DevCMOSPMOS     = "cmos-pmos"     // p-channel transistor (in the substrate)
	DevContactNDiff = "contact-ndiff" // metal to n-diffusion contact
	DevContactPDiff = "contact-pdiff" // metal to p-diffusion contact
	DevContactCPoly = "contact-poly"  // metal to poly contact
)

// CMOS returns the p-well CMOS technology, built from its embedded rule
// deck (decks/cmos.deck) once per process and shared.
var CMOS = shipped(cmosDeck)
