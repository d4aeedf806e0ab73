package layout_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// randomEdit draws one edit of any of the seven ops against any registered
// symbol — reachable or not, composite or device — with parameters that are
// sometimes invalid (a missing symbol, layer or orientation, an index out of
// range, a zero wire width, a call that would close a cycle or sit inside a
// device): ApplyEdit must refuse those and leave no trace.
func randomEdit(rng *rand.Rand, d *layout.Design, tc *tech.Technology) layout.Edit {
	syms := d.Symbols()
	pick := func() *layout.Symbol { return syms[rng.Intn(len(syms))] }
	s := pick()
	if rng.Intn(3) == 0 {
		s = d.Top // most structure hangs off the top
	}
	e := layout.Edit{Symbol: s.Name}
	if rng.Intn(25) == 0 {
		e.Symbol = "no-such-symbol"
	}
	layers := tc.Layers()
	e.Layer = layers[rng.Intn(len(layers))].Name
	if rng.Intn(15) == 0 {
		e.Layer = "no-such-layer"
	}
	// One past either end, so some indices miss.
	index := func(n int) int { return rng.Intn(2*n+3) - n - 1 }
	b := s.Bounds()
	x := b.X1 + rng.Int63n(b.X2-b.X1+1000)
	y := b.Y1 + rng.Int63n(b.Y2-b.Y1+1000)
	switch rng.Intn(7) {
	case 0:
		e.Op = layout.OpAddBox
		e.Box = []int64{x, y, x + 250 + 250*rng.Int63n(6), y + 250 + 250*rng.Int63n(6)}
	case 1:
		e.Op = layout.OpAddWire
		e.Width = 250 * rng.Int63n(4) // 0 is refused
		e.Path = []int64{x, y, x + 250*rng.Int63n(12), y}
	case 2:
		e.Op, e.Index = layout.OpDeleteElement, index(len(s.Elements))
	case 3:
		e.Op, e.Index = layout.OpMoveElement, index(len(s.Elements))
		e.DX, e.DY = 250*(rng.Int63n(5)-2), 250*(rng.Int63n(5)-2)
	case 4:
		e.Op, e.Target = layout.OpAddCall, pick().Name
		e.Orient = geom.Orient(rng.Intn(8)).String()
		if rng.Intn(15) == 0 {
			e.Orient = "R45"
		}
		e.DX, e.DY = x+40000, y+40000
	case 5:
		e.Op, e.Index = layout.OpDeleteCall, index(len(s.Calls))
	case 6:
		e.Op, e.Index = layout.OpMoveCall, index(len(s.Calls))
		e.DX, e.DY = 250*(rng.Int63n(5)-2), 250*(rng.Int63n(5)-2)
	}
	return e
}

// TestCachedHashesEqualScratchUnderEditScripts is the property the cached
// hashing rests on: through any script of layout.ApplyEdit ops — refused
// edits, calls added and deleted so that whole subtrees leave and re-enter
// the reachable set and are edited while out of it — the cached
// ContentHashes, SortedSymbols and Validate equal their from-scratch
// oracles after every step, and a warm engine run equals a cold one by
// digest, whoever else read the design in between (a second long-lived
// engine, a run of the first aborted before its first stage).
func TestCachedHashesEqualScratchUnderEditScripts(t *testing.T) {
	nm := tech.NMOS()
	steps := 150
	if testing.Short() {
		steps = 40
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, variant := range []string{"shared", "unique"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", variant, seed), func(t *testing.T) {
				var d *layout.Design
				if variant == "shared" {
					d = workload.NewChip(nm, "prop", 3, 4).Design
				} else {
					d = workload.NewChipUnique(nm, "prop", 3, 4).Design
				}
				// A definition nothing calls yet: add_call can bring it in.
				spare := d.MustSymbol("spare")
				metalL, _ := nm.LayerByName(tech.NMOSMetal)
				spare.AddBox(metalL, geom.R(0, 0, 1000, 1000), "")

				rng := rand.New(rand.NewSource(seed))
				eng, other := core.NewEngine(nm, core.Options{Workers: 1}), core.NewEngine(nm, core.Options{Workers: 1})
				if _, err := eng.Check(d); err != nil {
					t.Fatal(err)
				}
				applied, refused := 0, 0
				for i := 0; i < steps; i++ {
					e := randomEdit(rng, d, nm)
					label := fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol)
					before := d.ContentHashes()
					if err := layout.ApplyEdit(d, nm, e); err != nil {
						refused++
						after := d.ContentHashes()
						if len(after) != len(before) {
							t.Fatalf("%s: refused edit changed the reachable set", label)
						}
						for s, h := range before {
							if after[s] != h {
								t.Fatalf("%s: refused edit (%v) moved the hash of %q", label, err, s.Name)
							}
						}
					} else {
						applied++
					}
					layout.RequireScratchEqual(t, label, d)

					switch rng.Intn(4) {
					case 0:
						continue // let edits batch up between runs
					case 1:
						if _, err := other.Recheck(d); err != nil {
							t.Fatalf("%s: second engine: %v", label, err)
						}
					case 2:
						if _, err := eng.RecheckContext(canceled, d); err == nil {
							t.Fatalf("%s: canceled run completed", label)
						}
					}
					warm, err := eng.Recheck(d)
					if err != nil {
						t.Fatalf("%s: warm: %v", label, err)
					}
					cold, err := core.NewEngine(nm, core.Options{Workers: 1}).Check(d)
					if err != nil {
						t.Fatalf("%s: cold: %v", label, err)
					}
					if core.FingerprintDigest(warm) != core.FingerprintDigest(cold) {
						t.Fatalf("%s: warm report differs from a cold check\n--- warm ---\n%.2000s\n--- cold ---\n%.2000s",
							label, core.Fingerprint(warm), core.Fingerprint(cold))
					}
					layout.RequireScratchEqual(t, label+" after the runs", d)
				}
				if applied == 0 || refused == 0 {
					t.Fatalf("script applied %d edits and had %d refused: want some of each", applied, refused)
				}
			})
		}
	}
}
