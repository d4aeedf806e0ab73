package cif

import (
	"errors"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// FuzzParseCIF holds the CIF reader to its contract on arbitrary text: it
// never panics, and every input it accepts writes, reparses, and writes
// back to the same text (Write∘Parse is a fixed point).
func FuzzParseCIF(f *testing.F) {
	f.Add(sampleCIF)
	f.Add("DS 1 2 1; L NM; B 10 20 5 5; DF; C 1 R 0 1 T 7 9; E")
	f.Add("(nested (comment)); 9 x; L ND; W 4 0 0 10 0; P 0 0 10 0 10 10; E")
	f.Add(workload.DoublingCIF(32))
	tc := tech.NMOS()
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(src, tc, "fuzz")
		if err != nil {
			return
		}
		text, err := Write(d, tc)
		if err != nil {
			t.Fatalf("accepted input does not write: %v", err)
		}
		d2, err := Parse(text, tc, "fuzz")
		if err != nil {
			t.Fatalf("written text does not reparse: %v\n%s", err, text)
		}
		again, err := Write(d2, tc)
		if err != nil {
			t.Fatalf("reparsed design does not write: %v", err)
		}
		if again != text {
			t.Fatalf("Write∘Parse is not a fixed point:\n%s\n---\n%s", text, again)
		}
	})
}

// TestDoublingCIFRefused is the regression for a 1 KB file that parsed
// into 2^31 flattened instances and took the process down when checked:
// Parse now refuses it, quickly, as too large.
func TestDoublingCIFRefused(t *testing.T) {
	start := time.Now()
	_, err := Parse(workload.DoublingCIF(32), tech.NMOS(), "doubling")
	if !errors.Is(err, layout.ErrTooLarge) {
		t.Fatalf("doubling CIF: err = %v, want layout.ErrTooLarge", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("refusal took %v", el)
	}
	if _, err := Parse(workload.DoublingCIF(12), tech.NMOS(), "doubling"); err != nil {
		t.Fatalf("2^11 instances refused: %v", err)
	}
}
