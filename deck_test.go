package dic_test

import (
	"os"
	"path/filepath"
	"testing"

	dic "repro"
	"repro/internal/deck"
)

// TestLoadDeckRoundTrip exercises the public deck path end to end: parse
// the shipped CMOS deck, write it back out in canonical form, load that
// file with LoadDeck, and demand a byte-identical report fingerprint for a
// checked chip — a user-authored deck file is a first-class technology.
func TestLoadDeckRoundTrip(t *testing.T) {
	src, err := os.ReadFile("internal/tech/decks/cmos.deck")
	if err != nil {
		t.Fatal(err)
	}
	d, err := deck.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cmos-copy.deck")
	if err := os.WriteFile(path, []byte(deck.Write(d)), 0o666); err != nil {
		t.Fatal(err)
	}
	loaded, err := dic.LoadDeck(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(tc *dic.Technology) string {
		chip := dic.NewCMOSChip(tc, "roundtrip", 2, 3)
		rep, err := dic.Check(chip.Design, tc, dic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dic.Fingerprint(rep)
	}
	if fp(dic.CMOS()) != fp(loaded) {
		t.Fatal("deck written to disk and reloaded diverges from the embedded CMOS process")
	}
}

func TestLoadDeckRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.deck")
	if err := os.WriteFile(path, []byte("tech bad\nlayer a cif=XA\nspace a ghost diff=3\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := dic.LoadDeck(path); err == nil {
		t.Fatal("invalid deck loaded without error")
	}
}

func TestTechnologies(t *testing.T) {
	names := dic.Technologies()
	want := map[string]bool{"nmos": true, "bipolar": true, "cmos": true}
	if len(names) != len(want) {
		t.Fatalf("Technologies() = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected technology %q", n)
		}
	}
}
