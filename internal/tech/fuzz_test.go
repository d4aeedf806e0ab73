package tech

import (
	"testing"

	"repro/internal/deck"
)

// FuzzLoadDeck drives the deck loader with arbitrary text. The invariants:
// no panic on any input, and every deck the loader accepts reads back
// against its own parsed rows (checkRuleTable). The seeds are small decks
// covering every statement kind; the fuzzer's mutation rate drops to a few
// inputs a second on seeds the size of the shipped decks, which
// TestCompiledMatchesMaps and TestToDeckRoundTrip check instead.
func FuzzLoadDeck(f *testing.F) {
	f.Add("tech t lambda=100\nlayer a cif=XA role=poly\nlayer b cif=XB role=diffusion\nlayer c cif=XC role=contact\nspace a b diff=1L\nspace b b diff=2L same=1L exempt-related note=\"d\"\nenclose b c 1L\noverlap a b 2L\nextend a b 0.5L\nwidth a 2L\narea b 4L\n")
	f.Add("tech t\nlayer a cif=XA role=metal\nlayer i cif=XI role=isolation\nspace a a same=3 note=\"x\"\nspace a i note=\"skip\"\nrail power VDD\nrail ground GND\n")
	f.Add("tech t lambda=2\nlayer p cif=NP role=poly\nlayer d cif=ND role=diffusion\ndevice m class=mos-transistor depletion describe=\"m\"\n  use diffusion=d\n  param gate-extension=2L\n")
	f.Fuzz(func(t *testing.T, src string) {
		tc, err := LoadDeck(src, nil)
		if err != nil {
			return
		}
		d, err := deck.Parse(src)
		if err != nil {
			t.Fatalf("loader accepted a deck the parser refuses: %v", err)
		}
		checkRuleTable(t, d, tc)
	})
}
