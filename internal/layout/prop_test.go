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

// TestCachedHashesEqualScratchUnderEditScripts is the property the cached
// hashing rests on: through any script of layout.ApplyEdit ops — refused
// edits, calls added and deleted so that whole subtrees leave and re-enter
// the reachable set and are edited while out of it — Symbol.Hashes, read
// with no pass asked for, SortedSymbols and Validate equal their
// from-scratch oracles after every step, HashesSince counts as moved the
// symbols whose subtree hash differs, and a warm engine run equals a cold
// one by digest, whoever else read the design in between (a second
// long-lived engine, a run of the first aborted before its first stage).
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
				eng, other := core.NewEngine(nm, core.Options{}), core.NewEngine(nm, core.Options{})
				if _, err := eng.Check(d); err != nil {
					t.Fatal(err)
				}
				applied, refused := 0, 0
				for i := 0; i < steps; i++ {
					e := workload.RandomEdit(rng, d, nm)
					label := fmt.Sprintf("step %d (%s on %q)", i, e.Op, e.Symbol)
					before := hashes(d)
					_, _, mark := d.HashesSince(layout.HashMark{})
					err := layout.ApplyEdit(d, nm, e)
					after := hashes(d)
					// The pass counts as moved exactly the symbols whose
					// subtree hash differs, or that the edit brought in.
					want := 0
					for s, h := range after {
						if b, ok := before[s]; !ok || b.Subtree != h.Subtree {
							want++
						}
					}
					if rehashed, moved, _ := d.HashesSince(mark); moved != want || rehashed < moved {
						t.Fatalf("%s: pass counts %d re-hashed, %d moved; %d hashes moved", label, rehashed, moved, want)
					}
					if err == nil {
						applied++
					} else if refused++; want != 0 || len(after) != len(before) {
						t.Fatalf("%s: refused edit (%v) moved %d hashes or changed the reachable set", label, err, want)
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
						if _, err := eng.CheckContext(canceled, d); err == nil {
							t.Fatalf("%s: canceled run completed", label)
						}
					}
					warm, err := eng.Recheck(d)
					if err != nil {
						t.Fatalf("%s: warm: %v", label, err)
					}
					cold, err := core.NewEngine(nm, core.Options{}).Check(d)
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

// hashes reads every reachable symbol's Symbol.Hashes.
func hashes(d *layout.Design) map[*layout.Symbol]layout.SymbolHashes {
	out := make(map[*layout.Symbol]layout.SymbolHashes)
	for _, s := range d.SortedSymbols() {
		out[s] = s.Hashes()
	}
	return out
}
