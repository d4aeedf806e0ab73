package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// oracleFingerprint is the fmt-based serializer the production one
// replaced, kept verbatim as the definition of the format: every %v, %q
// and %d below is a form fpWriter has to reproduce byte for byte.
func oracleFingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %q\n", rep.Design.Name)

	fmt.Fprintf(&b, "violations %d\n", len(rep.Violations))
	for i := range rep.Violations {
		v := &rep.Violations[i]
		fmt.Fprintf(&b, "  %s sev=%d where=%v sym=%q path=%q layer=%d nets=%v detail=%q\n",
			v.Rule, v.Severity, v.Where, v.Symbol, v.Path, v.Layer, v.Nets, v.Detail)
	}

	st := &rep.Stats
	fmt.Fprintf(&b, "stats elems=%d symdefs=%d devinst=%d cand=%d checked=%d norule=%d samenet=%d related=%d conn=%d downgrades=%d\n",
		st.ElementsChecked, st.SymbolDefsChecked, st.DeviceInstances,
		st.InteractionCandidates, st.InteractionChecked,
		st.SkippedNoRule, st.SkippedSameNetExempt, st.SkippedRelated,
		st.SkippedConnectionPairs, st.ProcessDowngrades)
	for _, s := range st.Stages {
		fmt.Fprintf(&b, "stage %q checks=%d violations=%d\n", s.Name, s.Checks, s.Violations)
	}

	if nl := rep.Netlist; nl != nil {
		fmt.Fprintf(&b, "netlist nets=%d devices=%d\n", len(nl.Nets), len(nl.Devices))
		for i := range nl.Nets {
			n := &nl.Nets[i]
			fmt.Fprintf(&b, "  net %d %q declared=%v elements=%d bounds=%v terms=%v\n",
				n.ID, n.Name, n.Declared, n.Elements, nl.NetBounds(i), n.Terminals)
		}
		for i := range nl.Devices {
			d := &nl.Devices[i]
			fmt.Fprintf(&b, "  dev %d path=%q type=%q class=%q t=%v", i, d.Path, d.Info.Type, d.Info.Class, d.T)
			for ti := range d.TerminalNets {
				fmt.Fprintf(&b, " %s=%d", d.TerminalNets[ti].Name, d.TerminalNets[ti].Net)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// assertMatchesOracle checks both production forms against the oracle.
func assertMatchesOracle(t *testing.T, label string, rep *Report) {
	t.Helper()
	want := oracleFingerprint(rep)
	if got := Fingerprint(rep); got != want {
		t.Fatalf("%s: Fingerprint diverges from the fmt oracle\n got: %q\nwant: %q", label, got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got, want := FingerprintDigest(rep), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s: FingerprintDigest = %s, sha256 of the oracle text = %s", label, got, want)
	}
}

// hostileStrings sit on every edge of the quote fast path: the two
// characters it must escape, the bytes just outside printable ASCII,
// multi-byte runes, unprintable runes, invalid UTF-8, and a string longer
// than the serializer's chunk.
var hostileStrings = []string{
	"", "plain", " ", "~", `"`, `\`, `a"b\c`, "\x1f", "\x7f", "\x00", "tab\there", "line\nbreak",
	"é", "日本語", "\u2028", "\u00a0", "\ufeff", "\u0085", "\U0010ffff", "\xff", "a\xc3", "\xed\xa0\x80",
	strings.Repeat("x", 3*fpChunk+17), strings.Repeat(`"`, fpChunk), strings.Repeat("\xfe", fpChunk/2),
}

// syntheticReport builds a report by hand around one set of strings and
// one coordinate pair, covering what no generated chip does: every
// orientation (and an out-of-range one), negative and extreme
// coordinates, empty and nil slices, strings fmt has to escape.
func syntheticReport(design, sym, path, net, detail string, x, y int64, orient uint8) *Report {
	nl := &netlist.Netlist{
		Nets: []netlist.Net{
			{ID: 0, Name: net},
			{ID: 1, Name: "n1", Declared: []string{}, Terminals: []netlist.TermRef{}, Elements: 1},
			{ID: netlist.NetID(x), Name: detail, Declared: []string{net, "", path}, Elements: int(y),
				Terminals: []netlist.TermRef{{Device: 0, Terminal: "gate"}, {Device: int(x), Terminal: net}}},
		},
	}
	nl.Nets[0].SetBounds(geom.Rect{X1: x, Y1: y, X2: -x, Y2: -y})
	for o := uint8(0); o <= uint8(geom.MX270)+1; o++ {
		nl.Devices = append(nl.Devices, netlist.DeviceUse{
			Path: path, Info: &device.Info{Type: sym, Class: detail},
			T: geom.Transform{Orient: geom.Orient(o), Trans: geom.Pt(x, -y)},
		})
	}
	nl.Devices = append(nl.Devices, netlist.DeviceUse{
		Path: "top/" + path, Info: &device.Info{Type: "nfet", Class: "mos"},
		T: geom.Transform{Orient: geom.Orient(orient), Trans: geom.Pt(y, x)},
		TerminalNets: []netlist.TerminalNet{
			{Name: "drain", Net: 2}, {Name: net, Net: netlist.NetID(-x)},
		},
	})
	return &Report{
		Design: layout.NewDesign(design),
		Violations: []Violation{
			{Rule: "S.NM.NM.diff", Severity: Error, Detail: detail, Where: geom.Rect{X1: x, Y1: y, X2: x + 1, Y2: y + 1},
				Symbol: sym, Path: path, Layer: tech.LayerID(orient), Nets: []string{net, "n1"}},
			{Rule: net, Severity: Warning, Where: geom.Rect{X1: -1 << 63, Y1: -1, X2: 1<<63 - 1}},
			{Rule: "NET.FANOUT", Severity: Severity(orient), Detail: `net "a" has 1 device terminal(s), need at least 2`, Nets: []string{}},
		},
		Netlist: nl,
		Stats: Stats{
			Stages:          []StageStats{{Name: "elements", Checks: int(x), Violations: int(y)}, {Name: detail}},
			ElementsChecked: int(x), SymbolDefsChecked: int(y), DeviceInstances: -1,
			InteractionStats: InteractionStats{InteractionCandidates: 1 << 40, ProcessDowngrades: int(orient)},
		},
	}
}

// checkedReport runs a cold engine over d.
func checkedReport(t *testing.T, d *layout.Design, tc *tech.Technology) *Report {
	t.Helper()
	rep, err := NewEngine(tc, Options{}).Check(d)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFingerprintDigestMatchesOracle pins the streamed serializer to the
// fmt oracle: same text, and a digest equal to the sha256 of that text,
// on every family of report the repository can produce plus hand-built
// ones aimed at the forms the generators never emit.
func TestFingerprintDigestMatchesOracle(t *testing.T) {
	for _, p := range workload.AllPathologies() {
		assertMatchesOracle(t, p.Name, checkedReport(t, p.Design, p.Tech))
	}

	nm := tech.NMOS()
	shared := workload.NewChip(nm, "shared", 6, 6)
	workload.InjectErrors(shared, 12, 1)
	assertMatchesOracle(t, "nmos shared + errors", checkedReport(t, shared.Design, nm))
	unique := workload.NewChipUnique(nm, "unique", 5, 7)
	workload.InjectErrors(unique, 20, 2)
	rep := checkedReport(t, unique.Design, nm)
	assertMatchesOracle(t, "nmos unique + errors", rep)

	noNetlist := *rep
	noNetlist.Netlist = nil
	assertMatchesOracle(t, "nil netlist", &noNetlist)

	cm := tech.CMOS()
	cmos := workload.NewCMOSChip(cm, "cmos", 4, 6)
	cmos.BreakAccidentalTransistor(2)
	assertMatchesOracle(t, "cmos + accidental transistor", checkedReport(t, cmos.Design, cm))

	bp := tech.Bipolar()
	bip := workload.NewBipolarChip(bp, "bip", 6)
	bip.BreakIsolation(3)
	assertMatchesOracle(t, "bipolar + broken isolation", checkedReport(t, bip.Design, bp))

	assertMatchesOracle(t, "empty", &Report{Design: layout.NewDesign("")})
	for i, s := range hostileStrings {
		// Rotate the hostile string through every field so each one meets
		// each quoted and each verbatim position.
		n := len(hostileStrings)
		at := func(k int) string { return hostileStrings[(i+k)%n] }
		assertMatchesOracle(t, fmt.Sprintf("hostile %d %q", i, s[:min(len(s), 12)]),
			syntheticReport(at(0), at(1), at(2), at(3), at(4), int64(i)*-1000003, int64(i)*7919-50, uint8(i)))
	}
}

// FuzzFingerprintDigest drives the hand-built report with arbitrary
// strings and coordinates; the property is the one above.
func FuzzFingerprintDigest(f *testing.F) {
	f.Add("chip", "inv", "r0/c1", "VDD", "spacing 400 < 500", int64(-15000), int64(250), uint8(5))
	f.Add(`"`, `\`, "\x00", "\xff", "é\u2028", int64(-1<<63), int64(1<<63-1), uint8(255))
	f.Fuzz(func(t *testing.T, design, sym, path, net, detail string, x, y int64, orient uint8) {
		assertMatchesOracle(t, "fuzz", syntheticReport(design, sym, path, net, detail, x, y, orient))
	})
}

// twin returns a second report over a copy of rep's netlist: the same
// device array and memo under another Netlist, as a re-assembly over the
// same root artifact gives.
func twin(rep *Report) *Report {
	r, nl := *rep, *rep.Netlist
	r.Netlist = &nl
	return &r
}

// TestFingerprintDigestAllocs pins the point of streaming: the digest
// allocates a constant handful of objects (hash state, hex string)
// however large the netlist, where the text form allocates with it — on
// the path a netlist digested on its own takes (every device line
// streamed) and on the one a second netlist over its device array takes
// (the device section hashed from the memo). The 24×24 chip is
// violation-heavy: its NET.* details all quote a net name, so every one of
// them takes the escape path.
func TestFingerprintDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	nm := tech.NMOS()
	for _, c := range []struct{ n, errors int }{{8, 8}, {32, 32}, {24, 24 * 24}} {
		chip := workload.NewChipUnique(nm, "alloc", c.n, c.n)
		workload.InjectErrors(chip, c.errors, 1)
		rep := checkedReport(t, chip.Design, nm)
		escapes := 0
		for _, v := range rep.Violations {
			if strings.HasPrefix(v.Rule, "NET.") && strings.Contains(v.Detail, `"`) {
				escapes++
			}
		}
		if c.n == 24 && escapes < 24 {
			t.Fatalf("24x24: %d NET.* details with a quoted name, want a violation-heavy report", escapes)
		}
		// A netlist built by hand has no memo: every digest of it streams.
		streamed := *rep
		streamed.Netlist = &netlist.Netlist{Nets: rep.Netlist.Nets, Devices: rep.Netlist.Devices}
		successor := twin(rep)
		before := deviceSections.Load()
		FingerprintDigest(rep)
		FingerprintDigest(successor) // a second netlist over the array fills the memo
		if got := deviceSections.Load() - before; got != 1 {
			t.Fatalf("%dx%d: device section rendered %d times, want 1", c.n, c.n, got)
		}
		const maxAllocs = 8
		for _, p := range []struct {
			path string
			rep  *Report
		}{{"streamed", &streamed}, {"memo hit", successor}} {
			if allocs := testing.AllocsPerRun(5, func() { FingerprintDigest(p.rep) }); allocs > maxAllocs {
				t.Errorf("%dx%d with %d errors, %s: FingerprintDigest allocates %.0f objects, want <= %d",
					c.n, c.n, c.errors, p.path, allocs, maxAllocs)
			}
		}
	}
}

// TestFingerprintDigestAcrossWindowPatch pins the device-section memo to
// the format: over a streak of window-patched runs, every new report and
// every earlier one still held digests to the sha256 of the oracle text,
// while the device section is rendered once for the whole streak. A
// structural edit gives the netlist a new device array, which its own
// digests never memoise and its first patched successor does; undoing the
// edit matches the oracle too.
func TestFingerprintDigestAcrossWindowPatch(t *testing.T) {
	cm, nm := tech.CMOS(), tech.NMOS()
	// The served-poll session: an 8×8 CMOS array, 20 sub-width slivers,
	// then the probe.
	poll := workload.NewCMOSChip(cm, "poll", 8, 8).Design
	cmMetal, _ := cm.LayerByName(tech.CMOSMetal)
	for j := int64(0); j < 20; j++ {
		poll.Top.AddBox(cmMetal, geom.R(-30000, -20000-5000*j, -29900, -19000-5000*j), "")
	}
	poll.Top.AddBox(cmMetal, geom.R(-30000, 0, -29000, 1000), "")
	unique := workload.NewChipUnique(nm, "unique", 6, 6)
	workload.InjectErrors(unique, 12, 3)
	nmMetal, _ := nm.LayerByName(tech.NMOSMetal)
	unique.Design.Top.AddBox(nmMetal, geom.R(-15000, 0, -14250, 1000), "")

	for _, c := range []struct {
		name  string
		tc    *tech.Technology
		d     *layout.Design
		metal string
	}{{"cmos 8x8 poll", cm, poll, tech.CMOSMetal}, {"nmos unique 6x6 + errors", nm, unique.Design, tech.NMOSMetal}} {
		t.Run(c.name, func(t *testing.T) {
			eng := NewEngine(c.tc, Options{})
			if _, err := eng.Check(c.d); err != nil {
				t.Fatal(err)
			}
			top := c.d.Top.Name
			// recheck applies edit and rechecks, failing unless the window
			// patch answered exactly when patched says it must.
			recheck := func(edit layout.Edit, patched bool) *Report {
				t.Helper()
				if err := layout.ApplyEdit(c.d, c.tc, edit); err != nil {
					t.Fatal(err)
				}
				rep, err := eng.Recheck(c.d)
				if err != nil {
					t.Fatal(err)
				}
				if got := eng.Stats().WindowPatched; got != patched {
					t.Fatalf("%+v: WindowPatched = %v, want %v", edit, got, patched)
				}
				return rep
			}
			// Every report of the session stays held, with its oracle text
			// taken when it was new, and is digested again after each run.
			type heldReport struct {
				rep        *Report
				text, want string
			}
			var held []heldReport
			hold := func(label string, rep *Report) {
				t.Helper()
				text := oracleFingerprint(rep)
				sum := sha256.Sum256([]byte(text))
				held = append(held, heldReport{rep, text, hex.EncodeToString(sum[:])})
				for i, h := range held {
					if Fingerprint(h.rep) != h.text {
						t.Fatalf("%s: report %d: Fingerprint diverges from the oracle", label, i)
					}
					if got := FingerprintDigest(h.rep); got != h.want {
						t.Fatalf("%s: report %d: FingerprintDigest = %s, sha256 of the oracle text = %s", label, i, got, h.want)
					}
				}
			}
			before := deviceSections.Load()
			for i := 0; i < 20; i++ {
				dy := int64(250)
				if i%4 >= 2 {
					dy = -dy
				}
				hold(fmt.Sprintf("move %d", i), recheck(layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: -1, DY: dy}, true))
			}
			if got := deviceSections.Load() - before; got != 1 {
				t.Fatalf("device section rendered %d times across 20 patched runs, want 1", got)
			}

			before = deviceSections.Load()
			hold("structural edit", recheck(layout.Edit{Op: layout.OpAddBox, Symbol: top, Layer: c.metal,
				Box: []int64{-40000, 0, -39000, 1000}}, false))
			if got := deviceSections.Load() - before; got != 0 {
				t.Fatalf("device section rendered %d times for a netlist digested on its own, want 0", got)
			}
			// The added box is the top's last element now: move it, then undo
			// the edit that added it.
			hold("move after the structural edit", recheck(layout.Edit{Op: layout.OpMoveElement, Symbol: top, Index: -1, DY: 250}, true))
			if got := deviceSections.Load() - before; got != 1 {
				t.Fatalf("device section rendered %d times for the structural edit's device array, want 1", got)
			}
			hold("structural edit undone", recheck(layout.Edit{Op: layout.OpDeleteElement, Symbol: top, Index: -1}, false))
		})
	}
}

// TestFingerprintDigestMemoKeyedByArray: the memo describes one device
// array, so a netlist whose Devices are appended to, re-sliced or replaced
// after the memo was filled never hashes the stale bytes.
func TestFingerprintDigestMemoKeyedByArray(t *testing.T) {
	nm := tech.NMOS()
	chip := workload.NewChipUnique(nm, "stale", 3, 4)
	workload.InjectErrors(chip, 4, 2)
	rep := checkedReport(t, chip.Design, nm)
	nl := rep.Netlist
	orig := nl.Devices
	n := len(orig)
	roomy := append(make([]netlist.DeviceUse, 0, n+1), orig...) // appends in place
	replaced := append([]netlist.DeviceUse(nil), orig...)
	replaced[n-1].Path = "replaced"
	for _, c := range []struct {
		name       string
		base, then []netlist.DeviceUse
	}{
		{"appended", orig, append(orig[:n:n], orig[0])},
		{"appended in place", roomy, append(roomy, orig[0])},
		{"truncated", orig, orig[:n-1]},
		{"replaced", orig, replaced},
	} {
		nl.Devices = c.base
		before := deviceSections.Load()
		assertMatchesOracle(t, "before "+c.name, rep)
		assertMatchesOracle(t, "before "+c.name+", second netlist", twin(rep))
		if got := deviceSections.Load() - before; got != 1 {
			t.Fatalf("before %s: device section rendered %d times, want 1", c.name, got)
		}
		nl.Devices = c.then
		assertMatchesOracle(t, c.name, rep)
		assertMatchesOracle(t, c.name+", second netlist", twin(rep))
	}
}

// TestFingerprintDigestConcurrentFirstDigests: goroutines racing to be the
// first digests of one device array, from two netlists over it, all get
// the same answer (run under -race).
func TestFingerprintDigestConcurrentFirstDigests(t *testing.T) {
	nm := tech.NMOS()
	rep := checkedReport(t, workload.NewChipUnique(nm, "race", 4, 4).Design, nm)
	reps := []*Report{rep, twin(rep)}
	sum := sha256.Sum256([]byte(oracleFingerprint(rep)))
	want := hex.EncodeToString(sum[:])
	const goroutines = 8
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = FingerprintDigest(reps[g%len(reps)])
		}(g)
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d: digest %s, want %s", g, d, want)
		}
	}
}
