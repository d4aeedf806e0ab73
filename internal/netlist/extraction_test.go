package netlist

import (
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// coldExtract is an extraction on a fresh cache.
func coldExtract(d *layout.Design, tc *tech.Technology) (*IncExtraction, error) {
	inc, _, err := ExtractIncremental(d, tc, NewCache(), 1)
	return inc, err
}

func TestExtractArtifacts(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	poly, _ := tc.LayerByName(tech.NMOSPoly)
	d := layout.NewDesign("artifacts")
	tran := device.NewEnhTransistor(d, tc, "m", 500, 500)
	top := d.MustSymbol("top")
	top.AddCall(tran, geom.Identity, "m1")
	top.AddWire(diff, 500, "src", geom.Pt(-2000, 0), geom.Pt(-500, 0))
	top.AddWire(poly, 500, "gat", geom.Pt(0, 250), geom.Pt(0, 2500))
	d.Top = top

	ex, err := coldExtract(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	// Items: 2 interconnect + 3 terminals (g, s, d) + the diff-layer
	// channel remainder exported as netless support geometry.
	items := resolvedItems(ex)
	if len(items) != 6 {
		t.Fatalf("items = %d, want 6", len(items))
	}
	// The transistor exports one gate keepout.
	if len(ex.Gates) != 1 {
		t.Fatalf("gates = %d", len(ex.Gates))
	}
	if got := ex.Gates[0].Reg.Bounds(); got != geom.R(-250, -250, 250, 250) {
		t.Fatalf("gate keepout = %v", got)
	}
	if len(ex.BaseKeepouts) != 0 {
		t.Fatal("nMOS device should not export base keepouts")
	}
	// Exactly one item is netless: the channel's diff-layer footprint
	// ("the gate ... cannot be assigned to a net").
	noNet := 0
	for _, it := range items {
		if it.Net == NoNet {
			noNet++
			if got := it.Bounds; got != geom.R(-250, -250, 250, 250) {
				t.Fatalf("netless item = %v, want the channel", got)
			}
		}
	}
	if noNet != 1 {
		t.Fatalf("netless items = %d, want 1", noNet)
	}
}

func TestExtractSupportGeometry(t *testing.T) {
	// A contact's cut layer becomes a NoNet support item; a resistor's
	// body middle does too.
	tc := tech.NMOS()
	d := layout.NewDesign("support")
	ct := device.NewDiffContact(d, tc, "c")
	res := device.NewDiffResistor(d, tc, "r", 2000)
	top := d.MustSymbol("top")
	top.AddCall(ct, geom.Identity, "c1")
	top.AddCall(res, geom.Translate(geom.Pt(10000, 0)), "r1")
	d.Top = top

	ex, err := coldExtract(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	cutL, _ := tc.LayerByName(tech.NMOSContact)
	diffL, _ := tc.LayerByName(tech.NMOSDiff)
	foundCut, foundMiddle := false, false
	for _, it := range resolvedItems(ex) {
		if it.Net != NoNet {
			continue
		}
		if it.Layer == cutL {
			foundCut = true
		}
		if it.Layer == diffL && it.Bounds.X1 >= 10000 {
			foundMiddle = true
			// The middle excludes the two terminal caps.
			if it.Bounds.W() >= 2000 {
				t.Fatalf("body middle too wide: %v", it.Bounds)
			}
		}
	}
	if !foundCut {
		t.Fatal("contact cut not exported as support geometry")
	}
	if !foundMiddle {
		t.Fatal("resistor body middle not exported")
	}
}

func TestExtractIllegalPairs(t *testing.T) {
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("illegal")
	top := d.MustSymbol("top")
	// Shallow overlap: recorded as an illegal pair.
	top.AddBox(diff, geom.R(0, 0, 2000, 500), "")
	top.AddBox(diff, geom.R(1875, 0, 3875, 500), "")
	// Deep overlap elsewhere: NOT an illegal pair.
	top.AddBox(diff, geom.R(0, 5000, 2000, 5500), "")
	top.AddBox(diff, geom.R(1000, 5000, 3000, 5500), "")
	d.Top = top
	ex, err := coldExtract(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.IllegalPairs) != 1 {
		t.Fatalf("illegal pairs = %d, want 1", len(ex.IllegalPairs))
	}
	a, _ := ex.Root.ResolveItem(ex.IllegalPairs[0][0])
	b, _ := ex.Root.ResolveItem(ex.IllegalPairs[0][1])
	if a.Net == b.Net {
		t.Fatal("illegal pair must be on different nets")
	}
	// The deep pair merged into one net.
	if ex.Netlist.NumNets() != 3 {
		t.Fatalf("nets = %d, want 3 (two shallow + one merged deep)", ex.Netlist.NumNets())
	}
}

func TestIllegalPairSuppressedWhenConnectedElsewhere(t *testing.T) {
	// A shallow overlap between elements that are deeply connected through
	// a third element is cosmetic, not illegal.
	tc := tech.NMOS()
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	d := layout.NewDesign("cosmetic")
	top := d.MustSymbol("top")
	a := geom.R(0, 0, 2000, 500)
	b := geom.R(1875, 0, 3875, 500) // shallow onto a
	top.AddBox(diff, a, "")
	top.AddBox(diff, b, "")
	// A bridge connecting both deeply (full-width overlaps).
	top.AddBox(diff, geom.R(500, 0, 3000, 500), "")
	d.Top = top
	ex, err := coldExtract(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.IllegalPairs) != 0 {
		t.Fatalf("cosmetic overlap flagged: %v", ex.IllegalPairs)
	}
	if ex.Netlist.NumNets() != 1 {
		t.Fatalf("nets = %d, want 1", ex.Netlist.NumNets())
	}
}
