package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

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
				n.ID, n.Name, n.Declared, n.Elements, n.Bounds, n.Terminals)
		}
		for i := range nl.Devices {
			d := &nl.Devices[i]
			fmt.Fprintf(&b, "  dev %d path=%q type=%q class=%q t=%v", i, d.Path, d.Type, d.Class, d.T)
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
			{ID: 0, Name: net, Bounds: geom.Rect{X1: x, Y1: y, X2: -x, Y2: -y}},
			{ID: 1, Name: "n1", Declared: []string{}, Terminals: []netlist.TermRef{}, Elements: 1},
			{ID: netlist.NetID(x), Name: detail, Declared: []string{net, "", path}, Elements: int(y),
				Terminals: []netlist.TermRef{{Device: 0, Terminal: "gate"}, {Device: int(x), Terminal: net}}},
		},
	}
	for o := uint8(0); o <= uint8(geom.MX270)+1; o++ {
		nl.Devices = append(nl.Devices, netlist.DeviceUse{
			Path: path, Type: sym, Class: detail,
			T: geom.Transform{Orient: geom.Orient(o), Trans: geom.Pt(x, -y)},
		})
	}
	nl.Devices = append(nl.Devices, netlist.DeviceUse{
		Path: "top/" + path, Type: "nfet", Class: "mos",
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
			InteractionCandidates: 1 << 40, ProcessDowngrades: int(orient),
		},
	}
}

// checkedReport runs a cold engine over d.
func checkedReport(t *testing.T, d *layout.Design, tc *tech.Technology) *Report {
	t.Helper()
	rep, err := NewEngine(tc, Options{Workers: 1}).Check(d)
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

// TestFingerprintDigestAllocs pins the point of streaming: the digest
// allocates a constant handful of objects (hash state, chunk, hex string)
// however large the netlist, where the text form allocates with it.
func TestFingerprintDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	nm := tech.NMOS()
	for _, n := range []int{8, 32} {
		chip := workload.NewChipUnique(nm, "alloc", n, n)
		workload.InjectErrors(chip, n, 1)
		rep := checkedReport(t, chip.Design, nm)
		const maxAllocs = 8
		if allocs := testing.AllocsPerRun(5, func() { FingerprintDigest(rep) }); allocs > maxAllocs {
			t.Errorf("%dx%d: FingerprintDigest allocates %.0f objects, want <= %d", n, n, allocs, maxAllocs)
		}
	}
}
