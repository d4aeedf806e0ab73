package cif

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

func TestLowercaseCommands(t *testing.T) {
	src := `ds 1; 9 s; l ND; b 100 100 0 0; w 100 0 0 500 0; df; e`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Symbol("s")
	if len(s.Elements) != 2 {
		t.Fatalf("elements = %d", len(s.Elements))
	}
}

func TestNestedComments(t *testing.T) {
	src := `(outer (inner) still comment); DS 1; 9 s; L ND; B 10 10 0 0; DF; E`
	if _, err := Parse(src, tech.NMOS(), "x"); err != nil {
		t.Fatal(err)
	}
}

func TestEWithoutSemicolon(t *testing.T) {
	src := "DS 1; 9 s; L ND; B 10 10 0 0; DF; E"
	if _, err := Parse(src, tech.NMOS(), "x"); err != nil {
		t.Fatal(err)
	}
}

func TestCommandsAfterEIgnored(t *testing.T) {
	src := `DS 1; 9 s; L ND; B 10 10 0 0; DF; E; THIS IS GARBAGE;`
	if _, err := Parse(src, tech.NMOS(), "x"); err != nil {
		t.Fatalf("content after E must be ignored: %v", err)
	}
}

func TestBoxWithDirectionVector(t *testing.T) {
	// Direction (0,1) rotates the box 90°: extents swap.
	src := `DS 1; 9 s; L ND; B 400 100 0 0 0 1; DF; E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Symbol("s")
	if got := s.Elements[0].Box; got != geom.R(-50, -200, 50, 200) {
		t.Fatalf("rotated box = %v", got)
	}
	// Diagonal direction is rejected.
	if _, err := Parse(`DS 1; L ND; B 400 100 0 0 1 1; DF; E`, tech.NMOS(), "x"); err == nil {
		t.Fatal("diagonal box direction must be rejected")
	}
}

func TestNetAppliesToNextElementOnly(t *testing.T) {
	src := `DS 1; 9 s; L ND;
9N sig;
B 100 100 0 0;
B 100 100 500 0;
DF; E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Symbol("s")
	if s.Elements[0].Net != "sig" || s.Elements[1].Net != "" {
		t.Fatalf("net stickiness wrong: %q %q", s.Elements[0].Net, s.Elements[1].Net)
	}
}

func TestInstanceNameAppliesToNextCallOnly(t *testing.T) {
	src := `
DS 1; 9 leaf; L ND; B 10 10 0 0; DF;
DS 2; 9 top;
9I named;
C 1;
C 1 T 100 0;
DF; E`
	d, err := Parse(src, tech.NMOS(), "x")
	if err != nil {
		t.Fatal(err)
	}
	top, _ := d.Symbol("top")
	if top.Calls[0].Name != "named" {
		t.Fatalf("first call name = %q", top.Calls[0].Name)
	}
	if top.Calls[1].Name == "named" {
		t.Fatalf("instance name leaked to second call: %q", top.Calls[1].Name)
	}
}

func TestUnknownUserExtensionsIgnored(t *testing.T) {
	src := `DS 1; 9 s; 4X whatever; L ND; B 10 10 0 0; 7 123; DF; E`
	if _, err := Parse(src, tech.NMOS(), "x"); err != nil {
		t.Fatalf("other user extensions must be ignored: %v", err)
	}
}

func TestSyntaxErrorContext(t *testing.T) {
	src := `DS 1; 9 s; L ND; B 10; DF; E`
	_, err := Parse(src, tech.NMOS(), "x")
	if err == nil {
		t.Fatal("bad box accepted")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Command == 0 || !strings.Contains(se.Text, "B 10") {
		t.Fatalf("no context: %+v", se)
	}
}

func TestDuplicateSymbolName(t *testing.T) {
	src := `DS 1; 9 same; DF; DS 2; 9 same; DF; E`
	if _, err := Parse(src, tech.NMOS(), "x"); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name not rejected: %v", err)
	}
}

func TestWriteBipolarDesign(t *testing.T) {
	// The writer must handle non-nMOS layer sets.
	tc := tech.Bipolar()
	src := `DS 1; 9 q; 9D npn; L BB; B 800 800 400 400; L BE; B 300 300 400 400; DF; E`
	d, err := Parse(src, tc, "x")
	if err != nil {
		t.Fatal(err)
	}
	text, err := Write(d, tc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text, tc, "y")
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	q, ok := back.Symbol("q")
	if !ok || q.DeviceType != "npn" {
		t.Fatalf("bipolar round trip lost device: %+v", q)
	}
}

// TestParseCoordinateBound pins the coordinate bound at the parser: a box,
// wire or polygon past ±layout.MaxCoord, a DS scale whose product would
// wrap, and a call offset past the bound are refused with an error that
// wraps layout.ErrTooLarge; geometry exactly at the bound parses.
func TestParseCoordinateBound(t *testing.T) {
	refused := map[string]string{
		"box at ±2^62":      `DS 1; L NM; B 9223372036854775806 9223372036854775806 0 0; DF; E`,
		"box one past":      `DS 1; L NM; B 2 2 1073741824 0; DF; E`,
		"wire half-width":   `DS 1; L NM; W 200 0 0 1073741824 0; DF; E`,
		"polygon past":      `DS 1; L NM; P 0 0 1073741825 0 1073741825 10 0 10; DF; E`,
		"scale wraps":       `DS 1 4611686018427387904 1; L NM; B 4 4 2 2; DF; E`,
		"scaled past":       `DS 1 2 1; L NM; B 4 4 1073741824 0; DF; E`,
		"call offset past":  `DS 1; L NM; B 4 4 2 2; DF; C 1 T 1073741825 0; E`,
		"call offsets wrap": `DS 1; L NM; B 4 4 2 2; DF; C 1 T 4611686018427387904 0 T 4611686018427387904 0 T 4611686018427387904 0 T 4611686018427387904 0; E`,
		"top-level box":     `L NM; B 4 4 -1073741824 0; E`,
	}
	for name, src := range refused {
		if _, err := Parse(src, tech.NMOS(), "x"); !errors.Is(err, layout.ErrTooLarge) {
			t.Errorf("%s: err = %v, want layout.ErrTooLarge", name, err)
		}
	}
	accepted := map[string]string{
		"box spanning the range": `DS 1; L NM; B 2147483648 2147483648 0 0; DF; E`,
		"scaled to the bound":    `DS 1 1 4; L NM; B 8 8 4294967292 0; DF; E`,
		"call at the bound":      `DS 1; L NM; B 4 4 2 2; DF; C 1 T -1073741824 1073741824; E`,
		"long rotation vector":   `DS 1; L NM; B 4 4 2 2; DF; C 1 R 0 10000000000 T 5 5; E`,
	}
	for name, src := range accepted {
		if _, err := Parse(src, tech.NMOS(), "x"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
