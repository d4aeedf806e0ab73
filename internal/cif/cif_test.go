package cif

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

const sampleCIF = `
(a two-level design with extensions);
9 sample;
DS 1 1 1;
9 tran;
9D nmos-enh;
L NP; B 200 1000 0 0;
L ND; B 1000 200 0 0;
DF;
DS 2 1 1;
9 cell;
9I t1;
C 1 T 1000 1000;
L ND;
9N out;
W 500 0 0 2000 0;
DF;
DS 3 1 1;
9 top;
9I c1;
C 2;
9I c2;
C 2 T 5000 0;
DF;
E
`

func TestParseSample(t *testing.T) {
	tc := tech.NMOS()
	d, err := Parse(sampleCIF, tc, "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "sample" {
		t.Fatalf("design name = %q", d.Name)
	}
	if d.Top == nil || d.Top.Name != "top" {
		t.Fatalf("top = %v", d.Top)
	}
	tran, ok := d.Symbol("tran")
	if !ok {
		t.Fatal("tran missing")
	}
	if tran.DeviceType != "nmos-enh" || tran.Checked {
		t.Fatalf("tran device = %q checked=%v", tran.DeviceType, tran.Checked)
	}
	if len(tran.Elements) != 2 {
		t.Fatalf("tran elements = %d", len(tran.Elements))
	}
	poly := tran.Elements[0]
	if poly.Kind != layout.KindBox || poly.Box != geom.R(-100, -500, 100, 500) {
		t.Fatalf("poly box = %v", poly.Box)
	}
	cell, _ := d.Symbol("cell")
	if len(cell.Calls) != 1 || cell.Calls[0].Name != "t1" {
		t.Fatalf("cell calls = %v", cell.Calls)
	}
	if cell.Calls[0].T.Trans != geom.Pt(1000, 1000) {
		t.Fatalf("call transform = %v", cell.Calls[0].T)
	}
	wire := cell.Elements[0]
	if wire.Kind != layout.KindWire || wire.Net != "out" || wire.Width != 500 {
		t.Fatalf("wire = %+v", wire)
	}
	st := d.Stats()
	if st.FlatDevices != 2 {
		t.Fatalf("flat devices = %d", st.FlatDevices)
	}
}

func TestParseCheckedDevice(t *testing.T) {
	src := `DS 1; 9 odd; 9D special-dev CHK; L ND; B 100 100 0 0; DF; E`
	tc, err := tech.LoadDeck(`tech special
layer diffusion cif=ND role=diffusion width=100
device special-dev class=resistor
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(src, tc, "x")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Symbol("odd")
	if !s.Checked {
		t.Fatal("CHK flag lost")
	}
}

func TestParseTransforms(t *testing.T) {
	src := `
DS 1; 9 leaf; L ND; B 200 100 100 50; DF;
DS 2; 9 top;
C 1 R 0 1 T 1000 0;
C 1 M X T 0 1000;
C 1 M Y R -1 0;
DF; E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	top, _ := d.Symbol("top")
	if len(top.Calls) != 3 {
		t.Fatalf("calls = %d", len(top.Calls))
	}
	// leaf box is R(0,0,200,100).
	// Call 0: rotate 90 then translate (1000,0): box -> R(900,0,1000,200).
	if got := top.Calls[0].T.ApplyRect(geom.R(0, 0, 200, 100)); got != geom.R(900, 0, 1000, 200) {
		t.Fatalf("call0 box = %v", got)
	}
	// Call 1: mirror X (negate x) then translate (0,1000): -> R(-200,1000,0,1100).
	if got := top.Calls[1].T.ApplyRect(geom.R(0, 0, 200, 100)); got != geom.R(-200, 1000, 0, 1100) {
		t.Fatalf("call1 box = %v", got)
	}
	// Call 2: mirror Y then rotate 180: (x,y)->(x,-y)->(-x,y): same as M X.
	if got := top.Calls[2].T.ApplyRect(geom.R(0, 0, 200, 100)); got != geom.R(-200, 0, 0, 100) {
		t.Fatalf("call2 box = %v", got)
	}
}

func TestParseForwardReference(t *testing.T) {
	src := `
DS 2; 9 top; C 1 T 10 10; DF;
DS 1; 9 leaf; L ND; B 10 10 0 0; DF;
E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	// Last-defined symbol is leaf, but leaf is called by top... the top
	// heuristic picks the last DEFINED symbol; here that is "leaf".
	// Forward references must still resolve.
	topSym, _ := d.Symbol("top")
	if len(topSym.Calls) != 1 || topSym.Calls[0].Target.Name != "leaf" {
		t.Fatalf("forward call unresolved: %v", topSym.Calls)
	}
}

func TestParseTopLevelContent(t *testing.T) {
	src := `
DS 1; 9 leaf; L ND; B 10 10 5 5; DF;
C 1 T 100 0;
L NM; B 300 300 0 0;
E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Top.Name != "(top)" {
		t.Fatalf("top = %q", d.Top.Name)
	}
	if len(d.Top.Calls) != 1 || len(d.Top.Elements) != 1 {
		t.Fatalf("top content: %d calls %d elements", len(d.Top.Calls), len(d.Top.Elements))
	}
}

// TestWriteKeepsSynthesizedTop: the top Parse makes of top-level content
// is written as top-level content again, so it reads back as "(top)" with
// the same elements, net names, calls and instance names in the same
// order, not as a symbol renamed to a CIF-safe spelling.
func TestWriteKeepsSynthesizedTop(t *testing.T) {
	tc := tech.NMOS()
	src := `
DS 1; 9 leaf; L ND; B 10 10 5 5; DF;
9I u1; C 1 T 100 0;
L NM; B 300 300 0 0;
9N sig; W 100 0 500 400 500;
C 1 R 0 1 T 0 900;
E`
	orig, err := Parse(src, tc, "x")
	if err != nil {
		t.Fatal(err)
	}
	text, err := Write(orig, tc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text, tc, "x")
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Top.Name != "(top)" {
		t.Fatalf("top read back as %q:\n%s", back.Top.Name, text)
	}
	if len(back.Symbols()) != len(orig.Symbols()) {
		t.Fatalf("%d symbols read back, wrote %d:\n%s", len(back.Symbols()), len(orig.Symbols()), text)
	}
	ot, bt := orig.Top, back.Top
	if len(bt.Elements) != len(ot.Elements) || len(bt.Calls) != len(ot.Calls) {
		t.Fatalf("top content: %d elements %d calls, want %d and %d:\n%s",
			len(bt.Elements), len(bt.Calls), len(ot.Elements), len(ot.Calls), text)
	}
	for i := range ot.Elements {
		if o, b := ot.Elements[i], bt.Elements[i]; o.Layer != b.Layer || o.Net != b.Net || o.Bounds() != b.Bounds() {
			t.Fatalf("top element %d: %+v, want %+v", i, b, o)
		}
	}
	for i := range ot.Calls {
		if o, b := ot.Calls[i], bt.Calls[i]; o.Name != b.Name || o.T != b.T || o.Target.Name != b.Target.Name {
			t.Fatalf("top call %d: %+v, want %+v", i, b, o)
		}
	}
}

func TestParseDSScale(t *testing.T) {
	src := `DS 1 2 1; 9 s; L ND; B 100 100 50 50; DF; E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	// Distances double: the 100-box centered at (50,50) becomes a 200-box
	// centered at (100,100).
	s, _ := d.Symbol("s")
	if got := s.Elements[0].Box; got != geom.R(0, 0, 200, 200) {
		t.Fatalf("scaled box = %v", got)
	}
	// Non-divisible scale must fail.
	if _, err := Parse(`DS 1 1 3; L ND; B 100 100 50 50; DF; E`, tech.NMOS(), "x"); err == nil {
		t.Fatal("non-divisible scale should error")
	}
}

// TestParseDSScaleCallOffset: inside DS n a b a call's T offset is a
// distance and scales like the element coordinates; an offset the scale
// cannot divide exactly is refused.
func TestParseDSScaleCallOffset(t *testing.T) {
	d, err := Parse(`DS 1 100 1; L NM; B 4 4 2 2; DF; DS 2 100 1; C 1 T 10 0; DF; E`, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Symbol("S2")
	if len(s.Calls) != 1 || s.Calls[0].T.Trans != geom.Pt(1000, 0) {
		t.Fatalf("scaled call = %+v, want offset (1000,0)", s.Calls)
	}
	if _, err := Parse(`DS 1; L NM; B 4 4 2 2; DF; DS 2 1 3; C 1 T 10 0; DF; E`, tech.NMOS(), "x"); err == nil {
		t.Fatal("non-divisible call offset should error")
	}
}

func TestParseErrors(t *testing.T) {
	tc := tech.NMOS()
	cases := []struct {
		name, src, wantSub string
	}{
		{"no layer", `DS 1; B 10 10 0 0; DF; E`, "before any L"},
		{"bad layer", `DS 1; L ZZ; DF; E`, "unknown layer"},
		{"unterminated DS", `DS 1; L ND;`, "unterminated"},
		{"undefined call", `DS 1; C 9; DF; E`, "undefined symbol"},
		{"nested DS", `DS 1; DS 2; DF; DF; E`, "nested"},
		{"redefined", `DS 1; DF; DS 1; DF; E`, "redefined"},
		{"rotation", `DS 1; 9 a; L ND; B 4 4 0 0; DF; DS 2; C 1 R 1 1; DF; E`, "non-Manhattan rotation"},
		{"roundflash", `DS 1; R 100 0 0; DF; E`, "round flash"},
		{"empty", `E`, "empty design"},
		{"odd wire", `DS 1; L ND; W 10 0 0 5; DF; E`, "point pairs"},
		{"comment", `(unterminated`, "comment"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src, tc, "x"); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	tc := tech.NMOS()
	orig, err := Parse(sampleCIF, tc, "x")
	if err != nil {
		t.Fatal(err)
	}
	text, err := Write(orig, tc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text, tc, "y")
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	// Structural equivalence.
	so, sb := orig.Stats(), back.Stats()
	if so != sb {
		t.Fatalf("stats changed: %+v vs %+v", so, sb)
	}
	if back.Top.Name != orig.Top.Name {
		t.Fatalf("top changed: %q vs %q", back.Top.Name, orig.Top.Name)
	}
	// Geometric equivalence: identical flattened layer regions.
	ro, err := orig.FlatLayerRegions(tc.NumLayers())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := back.FlatLayerRegions(tc.NumLayers())
	if err != nil {
		t.Fatal(err)
	}
	for l := range ro {
		if !ro[l].Equal(rb[l]) {
			t.Fatalf("layer %d geometry changed", l)
		}
	}
	// Net and device annotations survive.
	cell, _ := back.Symbol("cell")
	if cell.Elements[0].Net != "out" {
		t.Fatalf("net lost: %+v", cell.Elements[0])
	}
	tran, _ := back.Symbol("tran")
	if tran.DeviceType != "nmos-enh" {
		t.Fatal("device type lost")
	}
}

func TestWriteOddBoxAsPolygon(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("odd")
	s := d.MustSymbol("s")
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	s.AddBox(diff, geom.R(0, 0, 7, 9), "")
	d.Top = s
	text, err := Write(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "P 0 0 7 0 7 9 0 9;") {
		t.Fatalf("odd box not written as polygon:\n%s", text)
	}
	back, err := Parse(text, tc, "x")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := back.FlatLayerRegions(tc.NumLayers())
	if r[diff].Area() != 63 {
		t.Fatalf("area = %d", r[diff].Area())
	}
}

func TestRoundTripWithTransforms(t *testing.T) {
	tc := tech.NMOS()
	d := layout.NewDesign("tr")
	diff, _ := tc.LayerByName(tech.NMOSDiff)
	leaf := d.MustSymbol("leaf")
	leaf.AddBox(diff, geom.R(0, 0, 200, 100), "")
	top := d.MustSymbol("top")
	for o := geom.Orient(0); o < 8; o++ {
		top.AddCall(leaf, geom.NewTransform(o, geom.Pt(int64(o)*1000, 500)), "")
	}
	d.Top = top
	text, err := Write(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text, tc, "x")
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	ro, _ := d.FlatLayerRegions(tc.NumLayers())
	rb, _ := back.FlatLayerRegions(tc.NumLayers())
	if !ro[diff].Equal(rb[diff]) {
		t.Fatalf("transform geometry changed:\n%s", text)
	}
}

// TestWriteKeepsDesignName: a design name Parse reads back unchanged is
// written as the top-level 9 command; any other — a path, a space, a
// parenthesis that would unbalance a comment — is left out of the text,
// and Parse keeps the name its caller passes, so the name round-trips
// either way.
func TestWriteKeepsDesignName(t *testing.T) {
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	for _, name := range []string{"chip", "a-b_c.9", "examples/chip.cif", "my chip", "a)b", "a(b", "x;y"} {
		d := layout.NewDesign(name)
		top := d.MustSymbol("top")
		top.AddBox(metal, geom.R(0, 0, 400, 400), "n1")
		d.Top = top
		text, err := Write(d, tc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(text, tc, name)
		if err != nil {
			t.Fatalf("%q: %v\n%s", name, err, text)
		}
		if back.Name != name {
			t.Fatalf("%q read back as %q:\n%s", name, back.Name, text)
		}
		if got, want := strings.Contains(text, name), layout.IsName(name); got != want {
			t.Fatalf("%q: in the text %v, want %v:\n%s", name, got, want, text)
		}
	}
}

// TestNamesBeginningWithExtensionLetters: "9 name" is a name whatever
// letter it begins with. Only a letter right after the 9 (9N, 9D, 9I)
// is an extension, so a design, symbol or instance named "design", "inv"
// or "net" is read back as itself and not as a 9D, 9I or 9N command.
func TestNamesBeginningWithExtensionLetters(t *testing.T) {
	tc := tech.NMOS()
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	d := layout.NewDesign("design")
	var prev *layout.Symbol
	for _, name := range []string{"inv", "nand", "driver", "Ideal", "Net"} {
		s := d.MustSymbol(name)
		s.AddBox(metal, geom.R(0, 0, 750, 750), "n"+name)
		if prev != nil {
			s.AddCall(prev, geom.Translate(geom.Pt(3000, 0)), "i"+name)
		}
		prev = s
	}
	d.Top = prev
	text, err := Write(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text, tc, "x")
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Name != "design" {
		t.Fatalf("design read back as %q:\n%s", back.Name, text)
	}
	for _, s := range d.Symbols() {
		b, ok := back.Symbol(s.Name)
		if !ok {
			t.Fatalf("symbol %q not read back:\n%s", s.Name, text)
		}
		if b.Elements[0].Net != s.Elements[0].Net {
			t.Fatalf("%s: net %q, want %q", s.Name, b.Elements[0].Net, s.Elements[0].Net)
		}
		if len(s.Calls) > 0 && b.Calls[0].Name != s.Calls[0].Name {
			t.Fatalf("%s: call %q, want %q", s.Name, b.Calls[0].Name, s.Calls[0].Name)
		}
	}
}

func TestFieldsTokenizer(t *testing.T) {
	got := fields("B 20,30 -5 7")
	want := []string{"B", "20", "30", "-5", "7"}
	if len(got) != len(want) {
		t.Fatalf("fields = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fields = %v", got)
		}
	}
}
