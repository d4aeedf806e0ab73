package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/cif"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// maxFuzzEdits bounds a fuzzed batch: edits cannot create symbols, so the
// flattened design grows at most linearly in the batch and a short batch
// keeps every input's check small.
const maxFuzzEdits = 64

// FuzzEditBatch decodes arbitrary bytes as the edit endpoint does and
// applies the batch to a session over a 2×2 CMOS chip whose second row is
// a renamed twin of the first ("cmos-row-twin": the same drawing under
// another name, so both rows share every cached result until an edit
// parts them). Nothing may panic, and the session's report digest must
// equal a cold core.Check of a fresh parse of the same CIF with the
// applied prefix replayed.
func FuzzEditBatch(f *testing.F) {
	tc := tech.CMOS()
	d := workload.NewCMOSChip(tc, "chip", 2, 2).Design
	row, _ := d.Symbol("cmos-row")
	twin := d.MustSymbol("cmos-row-twin")
	for _, e := range row.Elements {
		cp := *e
		cp.Path, cp.Poly = slices.Clone(e.Path), slices.Clone(e.Poly)
		twin.AddElement(&cp)
	}
	for _, c := range row.Calls {
		twin.AddCall(c.Target, c.T, c.Name)
	}
	d.Top.Calls[1].Target = twin
	d.Top.Touch()
	text, err := cif.Write(d, tc)
	if err != nil {
		f.Fatal(err)
	}
	if back, err := cif.Parse(text, tc, "chip"); err != nil {
		f.Fatal(err)
	} else if s, ok := back.Symbol("cmos-row-twin"); !ok || back.Top.Calls[1].Target != s {
		f.Fatal("the twin row does not survive the CIF round trip")
	}
	seed := func(edits ...layout.Edit) {
		b, err := json.Marshal(EditRequest{Edits: edits})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	metal := tech.CMOSMetal
	seed(layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: metal, Box: []int64{-40000, 0, -39000, 1000}})
	seed(breakEdits()...)
	seed(layout.Edit{Op: layout.OpDeleteElement, Symbol: "chip", Index: 0})
	seed(layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: 1, DX: 250, DY: -250})
	seed(layout.Edit{Op: layout.OpAddCall, Symbol: "chip", Target: "cmos-row", Name: "r9", Orient: "MX", DY: 36000})
	seed(layout.Edit{Op: layout.OpDeleteCall, Symbol: "chip", Index: 1})
	seed(layout.Edit{Op: layout.OpMoveCall, Symbol: "chip", Index: 0, DX: -400})
	seed(layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: metal, Box: []int64{-1 << 62, -1 << 62, 1 << 62, 1 << 62}})
	seed(layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: metal, Box: []int64{math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64}})
	seed(layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: 0, DX: math.MaxInt64})
	seed(layout.Edit{Op: layout.OpAddCall, Symbol: "cmos-row", Target: "chip"})
	seed(layout.Edit{Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: 500},
		layout.Edit{Op: layout.OpDeleteCall, Symbol: "chip", Index: -2},
		layout.Edit{Op: layout.OpDeleteElement, Symbol: "chip", Index: -9})
	// The twins part under an edit of one and meet again under its undo,
	// or meet on new content when the other takes the same edit.
	seed(layout.Edit{Op: layout.OpMoveElement, Symbol: "cmos-row-twin", Index: 0, DY: 250},
		layout.Edit{Op: layout.OpMoveElement, Symbol: "cmos-row-twin", Index: 0, DY: -250})
	seed(layout.Edit{Op: layout.OpAddBox, Symbol: "cmos-row", Layer: metal, Box: []int64{-9000, 0, -8000, 1000}},
		layout.Edit{Op: layout.OpDeleteElement, Symbol: "cmos-row", Index: -1})
	seed(layout.Edit{Op: layout.OpMoveElement, Symbol: "cmos-row", Index: 1, DX: 250},
		layout.Edit{Op: layout.OpMoveElement, Symbol: "cmos-row-twin", Index: 1, DX: 250})
	seed()
	srv := New(Config{Debounce: -1})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EditRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil || len(req.Edits) > maxFuzzEdits {
			return
		}
		ctx := context.Background()
		sess, serr := srv.open(ctx, "s1", CreateRequest{Name: "fuzz", DesignName: "chip", CIF: text, Tech: "cmos"})
		if serr != nil {
			t.Fatal(serr)
		}
		applied, _, _ := sess.applyEdits(req.Edits)
		rep, serr := sess.report(ctx)

		replay, err := cif.Parse(text, tc, "chip")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := layout.ApplyEdits(replay, tc, req.Edits[:applied]); n != applied || err != nil {
			t.Fatalf("replaying the %d applied edits: %d applied, %v", applied, n, err)
		}
		want, err := core.Check(replay, tc, core.Options{})
		if (serr != nil) != (err != nil) {
			t.Fatalf("session report error %v, cold check error %v", serr, err)
		}
		if err == nil && rep.Fingerprint != core.FingerprintDigest(want) {
			t.Fatalf("session digest %s, cold check %s after %d edits", rep.Fingerprint, core.FingerprintDigest(want), applied)
		}
	})
}
