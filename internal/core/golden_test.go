package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

// goldenDesign is one design whose report digest is pinned in
// testdata/fingerprints.golden.
type goldenDesign struct {
	name string
	d    *layout.Design
	tc   *tech.Technology
}

// nestedOrientedDesign is NewOrientedBlocks plus a translated family two
// levels down: "ofam" places the blocks' cell three times upright, so each
// later placement is a view of the first, and "omx" places ofam twice
// under MX. The cell is therefore embedded both upright and under every
// orientation, and the upright family is read through a mirrored parent.
// The cells of a family overlap arm to pad, so nets cross between members.
func nestedOrientedDesign(tc *tech.Technology) *layout.Design {
	d := workload.NewOrientedBlocks(tc)
	cell, _ := d.Symbol("ocell")
	fam := d.MustSymbol("ofam")
	for i := int64(0); i < 3; i++ {
		fam.AddCall(cell, geom.Translate(geom.Pt(3500*i, 0)), fmt.Sprintf("u%d", i))
	}
	mx := d.MustSymbol("omx")
	mx.AddCall(fam, geom.NewTransform(geom.MX, geom.Pt(0, 0)), "m0")
	mx.AddCall(fam, geom.NewTransform(geom.MX, geom.Pt(1000, -4000)), "m1")
	d.Top.AddCall(mx, geom.Translate(geom.Pt(20000, 30000)), "x")
	return d
}

// goldenDesigns lists the designs whose digests pin orientations and
// device kinds no benchmark workload reaches: rotated and mirrored
// embeddings, translation families under reoriented parents, injected
// errors, an accidental transistor, bipolar keepouts, and every paper
// pathology.
func goldenDesigns() []goldenDesign {
	nmos, cmos, bip := tech.NMOS(), tech.CMOS(), tech.Bipolar()
	unique := workload.NewChipUnique(nmos, "golden-unique", 3, 4)
	workload.InjectErrors(unique, 6, 1980)
	cm := workload.NewCMOSChip(cmos, "golden-cmos", 3, 4)
	cm.BreakAccidentalTransistor(1)
	bc := workload.NewBipolarChip(bip, "golden-bipolar", 6)
	bc.BreakIsolation(2)
	out := []goldenDesign{
		{"oriented-blocks", workload.NewOrientedBlocks(nmos), nmos},
		{"translated-families", workload.NewTranslatedFamilies(nmos), nmos},
		{"nested-oriented", nestedOrientedDesign(nmos), nmos},
		{"unique-3x4-injected", unique.Design, nmos},
		{"cmos-3x4-accidental", cm.Design, cmos},
		{"bipolar-6-broken", bc.Design, bip},
	}
	for _, p := range workload.AllPathologies() {
		out = append(out, goldenDesign{"pathology-" + strings.ReplaceAll(p.Name, " ", "-"), p.Design, p.Tech})
	}
	return out
}

// TestGoldenFingerprints checks every golden design cold and compares its
// report digest with the committed one. A mismatch prints both digests;
// the log carries the full file as this build computes it.
func TestGoldenFingerprints(t *testing.T) {
	raw, err := os.ReadFile("testdata/fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]] = f[1]
	}
	var got strings.Builder
	designs := goldenDesigns()
	for _, g := range designs {
		rep, err := Check(g.d, g.tc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		dg := FingerprintDigest(rep)
		fmt.Fprintf(&got, "%s %s\n", g.name, dg)
		if w, ok := want[g.name]; !ok {
			t.Errorf("%s: no golden digest (got %s)", g.name, dg)
		} else if w != dg {
			t.Errorf("%s: digest changed\n got: %s\nwant: %s", g.name, dg, w)
		}
	}
	if len(want) != len(designs) {
		t.Errorf("golden file lists %d designs, the test checks %d", len(want), len(designs))
	}
	if t.Failed() {
		t.Logf("digests of this build:\n%s", got.String())
	}
}
