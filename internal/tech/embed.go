package tech

import (
	_ "embed"
	"sort"
	"sync"
)

// The shipped technologies are defined by rule decks embedded at build
// time. Editing a deck changes the process — no code change required —
// which is the paper's technology-parameterization made literal.

//go:embed decks/nmos.deck
var nmosDeck string

//go:embed decks/bipolar.deck
var bipolarDeck string

//go:embed decks/cmos.deck
var cmosDeck string

// builtins are the shipped technologies by name: what -tech flags and the
// service's technology names resolve through.
var builtins = map[string]func() *Technology{"nmos": NMOS, "bipolar": Bipolar, "cmos": CMOS}

// ByName resolves a shipped technology name to its shared value.
func ByName(name string) (*Technology, bool) {
	fn, ok := builtins[name]
	if !ok {
		return nil, false
	}
	return fn(), true
}

// Names returns the shipped technology names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// shipped returns the loader of an embedded deck: the deck is parsed on
// first use and every caller after shares the value. The golden
// fingerprints cover the shipped decks, so a failure here is a build
// defect, not user input.
func shipped(src string) func() *Technology {
	return sync.OnceValue(func() *Technology {
		t, err := LoadDeck(src, nil)
		if err != nil {
			panic(err)
		}
		return t
	})
}
