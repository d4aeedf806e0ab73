package dic

// Shape assertions over the full experiment suite: the reproduction does
// not chase the paper's absolute numbers (it had none beyond the 10:1
// anecdote), but the SHAPE of every claim must hold — who wins, in which
// direction, and where the qualitative crossovers fall.

import (
	"strconv"
	"testing"

	"repro/internal/eval"
	"repro/internal/tech"
)

func TestPublicAPIQuickstart(t *testing.T) {
	tc := NMOS()
	chip := NewChip(tc, "api", 2, 2)
	text, err := WriteCIF(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCIF(text, tc, "api")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(back, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("round-tripped clean chip has errors: %v", rep.Errors()[0])
	}
	nl, _, err := ExtractNetlist(back, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nl.NetByName("VDD"); !ok {
		t.Fatal("VDD missing after round trip")
	}
	if _, err := CheckFlat(back, tc, FlatOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeE01 asserts the Figure 1 economics: the DIC dominates the
// baseline on both effectiveness and false errors, and the baseline's
// false:real ratio reaches the paper's 10:1 at scale.
func TestShapeE01(t *testing.T) {
	size := struct{ rows, cols, errors int }{16, 25, 50}
	if testing.Short() {
		size = struct{ rows, cols, errors int }{8, 12, 24}
	}
	res, err := eval.RunE1(tech.NMOS(), size.rows, size.cols, size.errors, 1980)
	if err != nil {
		t.Fatal(err)
	}
	if res.DIC.Missed != 0 || res.DIC.False != 0 {
		t.Errorf("DIC must be exact on ground truth: %+v", res.DIC)
	}
	if res.Flat.Effectiveness() >= 0.9 {
		t.Errorf("baseline effectiveness implausibly high: %+v", res.Flat)
	}
	ratio := res.Flat.FalseToRealRatio()
	if !testing.Short() && ratio < 10 {
		t.Errorf("false:real = %.1f, paper claims 10:1 or higher at scale", ratio)
	}
	if ratio < 2 {
		t.Errorf("false:real = %.1f, expected clearly pathological", ratio)
	}
}

// TestShapeE09 asserts the hierarchy claim: definition-level work is
// constant while the chip grows, and the DIC outruns the flat baseline.
func TestShapeE09(t *testing.T) {
	tab, err := eval.E09(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if first[2] != last[2] {
		t.Errorf("definition-level work grew: %s -> %s", first[2], last[2])
	}
	devFirst, _ := strconv.Atoi(first[0])
	devLast, _ := strconv.Atoi(last[0])
	if devLast <= devFirst {
		t.Fatalf("sizes not increasing: %d %d", devFirst, devLast)
	}
}

// TestShapeE12 asserts the proximity-effect direction: the deviation from
// the unary model grows monotonically as the gap shrinks.
func TestShapeE12(t *testing.T) {
	tab, err := eval.E12()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tab.Rows {
		eff, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad effect cell %q", row[3])
		}
		if eff < prev-1e-9 {
			t.Fatalf("proximity effect not monotone: %v", tab.Rows)
		}
		prev = eff
	}
	if prev < 1 {
		t.Fatalf("proximity effect never became material: %v", prev)
	}
}

// TestShapeE13 asserts the relational-rule direction: required overlap
// decreases with poly width and exceeds the margin for minimum-width poly.
func TestShapeE13(t *testing.T) {
	tab, err := eval.E13()
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 1e18
	for _, row := range tab.Rows {
		need, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if need > prev+1e-9 {
			t.Fatalf("required overlap not decreasing: %v", tab.Rows)
		}
		prev = need
	}
	firstNeed, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	if firstNeed <= 125 {
		t.Fatalf("minimum-width poly should need more than the bare margin: %v", firstNeed)
	}
}

// TestShapeE16 asserts the residual-work arithmetic: the DIC's residual is
// strictly below the baseline's, which is strictly below unchecked.
func TestShapeE16(t *testing.T) {
	tab, err := eval.E16(true)
	if err != nil {
		t.Fatal(err)
	}
	var none, flatRes, dicRes float64
	for _, row := range tab.Rows {
		v, _ := strconv.ParseFloat(row[3], 64)
		switch row[1] {
		case "none":
			none = v
		case "flat baseline":
			flatRes = v
		case "DIC":
			dicRes = v
		}
	}
	if !(dicRes < flatRes && flatRes < none) {
		t.Fatalf("residual ordering broken: DIC=%v flat=%v none=%v", dicRes, flatRes, none)
	}
}
