package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/tech"
	"repro/internal/workload"
)

// requireSameReport compares duration-free fingerprints.
func requireSameReport(t *testing.T, label string, got, want *Report) {
	t.Helper()
	g, w := Fingerprint(got), Fingerprint(want)
	if g != w {
		t.Fatalf("%s: reports differ\n--- got ---\n%s\n--- want ---\n%s", label, clip(g), clip(w))
	}
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n...[clipped]"
	}
	return s
}

// referencesFor derives a netlist reference the design satisfies (every
// declared net with the attachments it really has) and one it does not (a
// wrong attachment on one net, plus a net that does not exist).
func referencesFor(nl *netlist.Netlist) (good, bad netlist.Reference) {
	good, bad = netlist.Reference{}, netlist.Reference{"no-such-net": {"nmos-enh:g"}}
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if net.IsAnonymous() {
			continue
		}
		good[net.Name] = nl.Signature(net.ID)
		if len(bad) == 1 {
			bad[net.Name] = append(nl.Signature(net.ID), "no-such-device:x")
		}
	}
	return good, bad
}

// TestEngineMatchesCheck: the engine — which is what Check, dicheck and
// every experiment run — must agree with the spec on nets, connections and
// interactions for clean, dirty, bipolar, CMOS, pathology, rotated-block
// and translated-family designs, under every option the experiments pass
// and with the prebuild pool off and on; and on every rule family its cold
// run must equal a one-worker cold run and a no-edit recheck.
func TestEngineMatchesCheck(t *testing.T) {
	type tcase struct {
		label  string
		design *layout.Design
		tc     *tech.Technology
	}
	var cases []tcase
	nm := tech.NMOS()
	cases = append(cases, tcase{"clean 4x5", workload.NewChip(nm, "clean", 4, 5).Design, nm})
	cases = append(cases, tcase{"unique 3x4", workload.NewChipUnique(nm, "uniq", 3, 4).Design, nm})
	// Cell items resolve through two or three spans under composed
	// rotations, with same-net and different-net pairs across the blocks.
	cases = append(cases, tcase{"oriented blocks", workload.NewOrientedBlocks(nm), nm})
	// Translation families at two levels under R90 and MX: every later
	// placement is a view of the first, and pairs cross between views.
	cases = append(cases, tcase{"translated families", workload.NewTranslatedFamilies(nm), nm})

	dirty := workload.NewChip(nm, "dirty", 6, 7)
	workload.InjectErrors(dirty, 25, 42)
	cases = append(cases, tcase{"dirty 6x7", dirty.Design, nm})

	bip := workload.NewBipolarChip(tech.Bipolar(), "bip", 6)
	bip.BreakIsolation(2)
	cases = append(cases, tcase{"bipolar", bip.Design, tech.Bipolar()})

	cm := tech.CMOS()
	cmos := workload.NewCMOSChip(cm, "cmos", 3, 4)
	cmos.BreakAccidentalTransistor(5)
	cases = append(cases, tcase{"cmos 3x4 accidental", cmos.Design, cm})

	for _, p := range workload.AllPathologies() {
		cases = append(cases, tcase{"pathology " + p.Name, p.Design, p.Tech})
	}

	model := process.DefaultModel()
	for _, tcse := range cases {
		base, err := Check(tcse.design, tcse.tc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tcse.label, err)
		}
		good, bad := referencesFor(base.Netlist)
		variants := []struct {
			label   string
			opts    Options
			missing int // NET.MISSING findings expected
		}{
			{"default", Options{}, 0},
			{"orthogonal", Options{Metric: Orthogonal}, 0},
			{"no exemptions", Options{NoExemptions: true}, 0},
			{"process model", Options{ProcessSpacing: &model, ProcessMargin: 100}, 0},
			{"skip construction", Options{SkipConstruction: true}, 0},
			{"good reference", Options{Reference: good}, 0},
			{"bad reference", Options{Reference: bad}, 1},
		}
		for _, v := range variants {
			label := tcse.label + ", " + v.label
			spec := specCheck(tcse.design, tcse.tc, v.opts)
			var serial *Report
			for _, workers := range []int{1, 0} {
				func() {
					defer pinProcs(workers)()
					wl := fmt.Sprintf("%s, workers %d", label, workers)
					eng := NewEngine(tcse.tc, v.opts)
					got, err := eng.Check(tcse.design)
					if err != nil {
						t.Fatalf("%s: engine: %v", wl, err)
					}
					requireSpec(t, wl+" (cold engine vs spec)", got, spec)
					if n := ruleCount(t, got, "NET.MISSING"); n != v.missing {
						t.Fatalf("%s: %d NET.MISSING, want %d", wl, n, v.missing)
					}
					if serial == nil {
						serial = got
					} else {
						requireSameReport(t, wl+" (cold engine vs one worker)", got, serial)
					}

					// A second run with nothing edited must replay to the same report.
					again, err := eng.Recheck(tcse.design)
					if err != nil {
						t.Fatalf("%s: recheck: %v", wl, err)
					}
					requireSameReport(t, wl+" (no-edit recheck)", again, got)
				}()
			}
		}
	}
}

// mutateOneSymbol applies one random single-symbol edit and returns a
// description of it.
func mutateOneSymbol(rng *rand.Rand, d *layout.Design, tc *tech.Technology) string {
	syms := d.SortedSymbols()
	var composites []*layout.Symbol
	for _, s := range syms {
		if !s.IsPrimitive() && len(s.Elements) > 0 {
			composites = append(composites, s)
		}
	}
	s := composites[rng.Intn(len(composites))]
	var layers []tech.LayerID
	for _, s := range syms {
		for _, e := range s.Elements {
			layers = append(layers, e.Layer)
		}
	}
	slices.Sort(layers)
	layers = slices.Compact(layers)
	switch rng.Intn(4) {
	case 0: // add a box somewhere near the symbol's own geometry
		b := s.Bounds()
		x := b.X1 + rng.Int63n(max64(b.X2-b.X1, 1))
		y := b.Y1 + rng.Int63n(max64(b.Y2-b.Y1, 1))
		l := layers[rng.Intn(len(layers))]
		s.AddBox(l, geom.R(x, y, x+500+rng.Int63n(1500), y+500+rng.Int63n(1500)), "")
		return fmt.Sprintf("add box to %q", s.Name)
	case 1: // nudge an existing box/wire
		e := s.Elements[rng.Intn(len(s.Elements))]
		dx := rng.Int63n(500) - 250
		switch e.Kind {
		case layout.KindBox:
			e.Box.X1 += dx
			e.Box.X2 += dx
		case layout.KindWire:
			for i := range e.Path {
				e.Path[i].X += dx
			}
		case layout.KindPolygon:
			for i := range e.Poly {
				e.Poly[i].X += dx
			}
		}
		s.Touch() // a direct geometry write: the hashes are cached behind it
		return fmt.Sprintf("nudge element in %q by %d", s.Name, dx)
	case 2: // change a net declaration
		e := s.Elements[rng.Intn(len(s.Elements))]
		e.Net = fmt.Sprintf("mut%d", rng.Intn(3))
		s.Touch()
		return fmt.Sprintf("redeclare net in %q", s.Name)
	default: // duplicate an existing call under a shifted transform
		if len(s.Calls) == 0 {
			s.AddBox(layers[rng.Intn(len(layers))], geom.R(0, 0, 700, 700), "")
			return fmt.Sprintf("add box to call-less %q", s.Name)
		}
		c := s.Calls[rng.Intn(len(s.Calls))]
		shift := geom.Pt(c.T.Trans.X+40000+rng.Int63n(20000), c.T.Trans.Y+40000)
		s.AddCall(c.Target, geom.NewTransform(c.T.Orient, shift), "")
		return fmt.Sprintf("duplicate call %q in %q", c.Name, s.Name)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestEngineRecheckByteIdentical is the tentpole's acceptance test: after
// each random single-symbol edit, a warm Recheck must produce a report
// byte-identical (modulo durations) to a cold engine Check of the same
// design state, and agree with the spec.
func TestEngineRecheckByteIdentical(t *testing.T) {
	for _, variant := range []string{"shared", "unique"} {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			nm := tech.NMOS()
			var chip *workload.Chip
			if variant == "shared" {
				chip = workload.NewChip(nm, "rand-"+variant, 4, 5)
			} else {
				chip = workload.NewChipUnique(nm, "rand-"+variant, 4, 5)
			}
			d := chip.Design
			eng := NewEngine(nm, Options{})
			if _, err := eng.Check(d); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1980))
			edits := 12
			if testing.Short() {
				edits = 4
			}
			for i := 0; i < edits; i++ {
				desc := mutateOneSymbol(rng, d, nm)
				warm, err := eng.Recheck(d)
				if err != nil {
					t.Fatalf("edit %d (%s): recheck: %v", i, desc, err)
				}
				cold, err := NewEngine(nm, Options{}).Check(d)
				if err != nil {
					t.Fatalf("edit %d (%s): cold: %v", i, desc, err)
				}
				requireSameReport(t, fmt.Sprintf("edit %d (%s) warm vs cold", i, desc), warm, cold)
				requireSpec(t, fmt.Sprintf("edit %d (%s) warm vs spec", i, desc), warm, specCheck(d, nm, Options{}))
			}
		})
	}
}

// TestEngineSeesRenameAndScalarWrites: the content hashes are cached behind
// Symbol.Touch, so every write that is content must reach them. Design.Rename
// touches the symbol it renames (the name is part of the own hash and of
// each violation it owns); DeviceType and Checked are plain fields a caller
// may write directly, so the hash stamp itself must notice them. After each,
// the warm report must move and must equal a cold check's.
func TestEngineSeesRenameAndScalarWrites(t *testing.T) {
	nm := tech.NMOS()
	d := workload.NewChipUnique(nm, "scalars", 4, 5).Design
	polyL, _ := nm.LayerByName(tech.NMOSPoly)
	diffL, _ := nm.LayerByName(tech.NMOSDiff)
	// A transistor definition with no gate overlap: it owns device errors.
	bad := d.MustSymbol("bad-tran")
	bad.DeviceType = tech.DevNMOSEnh
	bad.AddBox(polyL, geom.R(-250, -250, 250, 250), "")
	bad.AddBox(diffL, geom.R(-750, -250, 750, 250), "")
	d.Top.AddCall(bad, geom.Translate(geom.Pt(-20000, 0)), "bad")
	pulldown, ok := d.Symbol("lib.pulldown")
	if !ok {
		t.Fatal("lib.pulldown missing")
	}

	eng := NewEngine(nm, Options{})
	rep, err := eng.Check(d)
	if err != nil {
		t.Fatal(err)
	}
	last := Fingerprint(rep)
	for _, step := range []struct {
		label string
		write func()
	}{
		{"rename a called symbol", func() { d.Rename(bad, "worse-tran") }},
		{"set Checked", func() { bad.Checked = true }},
		{"clear Checked", func() { bad.Checked = false }},
		{"change DeviceType", func() { pulldown.DeviceType = tech.DevNMOSDep }},
	} {
		step.write()
		warm, err := eng.Recheck(d)
		if err != nil {
			t.Fatalf("%s: recheck: %v", step.label, err)
		}
		cold, err := NewEngine(nm, Options{}).Check(d)
		if err != nil {
			t.Fatalf("%s: cold: %v", step.label, err)
		}
		requireSameReport(t, step.label+" warm vs cold", warm, cold)
		fp := Fingerprint(warm)
		if fp == last {
			t.Fatalf("%s: the report did not move", step.label)
		}
		last = fp
	}
}

// TestEngineRecheckReusesCleanDefs pins the incrementality claim itself:
// after editing one row definition of a unique-rows chip, the engine must
// rebuild only the dirty subtrees.
func TestEngineRecheckReusesCleanDefs(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChipUnique(nm, "reuse", 6, 4)
	d := chip.Design
	eng := NewEngine(nm, Options{})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}
	cold := eng.Stats()
	if cold.InterReused != 0 && cold.InterBuilt == 0 {
		t.Fatalf("cold run built nothing: %+v", cold)
	}

	row, ok := d.Symbol("row3")
	if !ok {
		t.Fatal("row3 missing")
	}
	metalL, _ := nm.LayerByName(tech.NMOSMetal)
	row.AddBox(metalL, geom.R(-900, 900, -150, 1650), "")
	if _, err := eng.Recheck(d); err != nil {
		t.Fatal(err)
	}
	warm := eng.Stats()
	// Dirty: row3 and chip. Everything else replays from cache.
	if warm.DirtySymbols != 2 {
		t.Fatalf("dirty symbols = %d, want 2 (row3 + chip); stats %+v", warm.DirtySymbols, warm)
	}
	if warm.InterBuilt > 2 {
		t.Fatalf("rebuilt %d interaction defs, want <= 2; stats %+v", warm.InterBuilt, warm)
	}
	if warm.InterReused == 0 {
		t.Fatalf("no interaction defs reused; stats %+v", warm)
	}
}

// TestSameDevicePairsNeedNoSignature: a definition whose every candidate
// pair lies inside one device (every transistor symbol) registers no class
// in its signature domain, so all its instances replay the one tally
// adjudicated under the empty signature, at the miss and hit counts the
// special case for such definitions once gave on this chip.
func TestSameDevicePairsNeedNoSignature(t *testing.T) {
	nm := tech.NMOS()
	d := workload.NewChip(nm, "samedev", 8, 8).Design
	inc, _, err := netlist.ExtractIncremental(d, nm, netlist.NewCache(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nm, Options{})
	c := &checker{design: d, tech: nm, rep: &Report{Design: d, Tech: nm}}
	var stats EngineStats
	e.checkInteractions(c, inc, &stats)
	if stats.SigMisses != 6 || stats.SigHits != 259 {
		t.Fatalf("signatures %d miss/%d hit, want 6/259", stats.SigMisses, stats.SigHits)
	}
	seen := make(map[*defInter]bool)
	instances := 0
	for ii := range inc.Instances {
		di := e.cachedInter(inc.Instances[ii].Art)
		inside := len(di.pairs) > 0
		for _, p := range di.pairs {
			a, b := di.itemAt(p.a), di.itemAt(p.b)
			inside = inside && a.Dev >= 0 && a.Dev == b.Dev
		}
		if !inside {
			continue
		}
		instances++
		if seen[di] {
			continue
		}
		seen[di] = true
		if sigs := *di.sigs.Load(); len(di.candClasses) != 0 || len(di.classPairAt) != 0 || len(sigs) != 1 || sigs[""] == nil {
			t.Fatalf("%s: %d classes, %d class pairs, %d tallies; want one tally under the empty signature",
				di.art.Hash, len(di.candClasses), len(di.classPairAt), len(sigs))
		}
	}
	if len(seen) == 0 || instances <= len(seen) {
		t.Fatalf("%d such definitions over %d instances: nothing replayed", len(seen), instances)
	}
	t.Logf("%d definitions with only same-device pairs, %d instances", len(seen), instances)
}
