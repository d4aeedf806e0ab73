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
	f.Add(workload.ChainCIF(1 << 16))
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

// TestChainCIFRefused: a chain of 2^16 symbols, each calling the previous
// once, is small when flattened but 2^16 levels deep; Parse refuses it as
// too large without walking the chain, and accepts a chain at the cap.
// Reading the 1.2 MB of definitions is the whole cost (about 0.2 s, six
// times that under -race); the bound catches a refusal that walks the
// chain instead.
func TestChainCIFRefused(t *testing.T) {
	src := workload.ChainCIF(1 << 16)
	start := time.Now()
	_, err := Parse(src, tech.NMOS(), "chain")
	if !errors.Is(err, layout.ErrTooLarge) {
		t.Fatalf("2^16-deep chain: err = %v, want layout.ErrTooLarge", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("refusal of %d bytes took %v", len(src), el)
	}
	// The top-level call makes a top symbol: n chained symbols are n+1
	// levels.
	if _, err := Parse(workload.ChainCIF(1023), tech.NMOS(), "chain"); err != nil {
		t.Fatalf("1024-level chain refused: %v", err)
	}
	if _, err := Parse(workload.ChainCIF(1024), tech.NMOS(), "chain"); !errors.Is(err, layout.ErrTooLarge) {
		t.Fatalf("1025-level chain: err = %v, want layout.ErrTooLarge", err)
	}
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
