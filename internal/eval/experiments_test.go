package eval

import (
	"strings"
	"testing"
)

func TestE01Economics(t *testing.T) {
	tab, err := E01(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// DIC: all flagged, none missed, none false.
		if row[3] != "0" || row[4] != "0" {
			t.Errorf("DIC not clean: %v", row)
		}
		// Baseline: must miss some and flag false ones.
		if row[6] == "0" || row[7] == "0" {
			t.Errorf("baseline unexpectedly perfect: %v", row)
		}
	}
	// At the larger size the false:real ratio reaches the paper's 10:1.
	last := tab.Rows[len(tab.Rows)-1]
	if !strings.Contains(last[8], ":1") {
		t.Fatalf("ratio cell malformed: %v", last)
	}
}

func TestE02PathologyTable(t *testing.T) {
	tab, err := E02()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "UNEXPECTED") {
				t.Errorf("pathology deviated: %v", row)
			}
		}
	}
}

func TestE03E04Geometry(t *testing.T) {
	t3, err := E03()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 4 {
		t.Fatalf("E03 rows = %d", len(t3.Rows))
	}
	t4, err := E04()
	if err != nil {
		t.Fatal(err)
	}
	// Euclidean SEC flags 4 corners, orthogonal none; orthogonal spacing
	// flags the diagonal, Euclidean none.
	if t4.Rows[0][2] != "4" || t4.Rows[1][2] != "0" {
		t.Fatalf("E04 width rows wrong: %v", t4.Rows)
	}
	if t4.Rows[2][2] != "1" || t4.Rows[3][2] != "0" {
		t.Fatalf("E04 spacing rows wrong: %v", t4.Rows)
	}
}

func TestE09Hierarchy(t *testing.T) {
	tab, err := E09(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Definition-level work is constant across sizes.
	if tab.Rows[0][2] != tab.Rows[1][2] {
		t.Fatalf("defs checked should not grow: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestE10Skeletal(t *testing.T) {
	tab, err := E10()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"deep overlap (2x min width)": {"true", "true"},
		"overlap exactly min width":   {"true", "true"},
		// The shallow union is still legal-width geometry — which is why
		// only the connection rule can catch the construction.
		"shallow corner overlap":       {"false", "true"},
		"end-to-end abutment (Fig 15)": {"false", "true"},
		"disjoint":                     {"false", "true"},
		"enclosure":                    {"true", "true"},
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Errorf("unexpected case %q", row[0])
			continue
		}
		if row[1] != w[0] || row[2] != w[1] {
			t.Errorf("%s: got (%s,%s), want %v", row[0], row[1], row[2], w)
		}
	}
}

func TestE11MatrixAudit(t *testing.T) {
	tab, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || len(tab.Notes) < 2 {
		t.Fatalf("audit incomplete: %d rows %d notes", len(tab.Rows), len(tab.Notes))
	}
}

func TestE12E13Process(t *testing.T) {
	t12, err := E12()
	if err != nil {
		t.Fatal(err)
	}
	if len(t12.Rows) != 6 {
		t.Fatalf("E12 rows = %d", len(t12.Rows))
	}
	t13, err := E13()
	if err != nil {
		t.Fatal(err)
	}
	if len(t13.Rows) != 5 {
		t.Fatalf("E13 rows = %d", len(t13.Rows))
	}
	// Retreat decreases with width (column 1, numeric strings).
	if !(t13.Rows[0][1] > t13.Rows[4][1]) {
		t.Fatalf("retreat not decreasing: %v ... %v", t13.Rows[0], t13.Rows[4])
	}
}

func TestE15Construction(t *testing.T) {
	tab, err := E15()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[2] == "0" {
			t.Errorf("rule %s not triggered: %v", row[0], row)
		}
		if row[3] != "0" {
			t.Errorf("rule %s fires on clean chip: %v", row[0], row)
		}
	}
}

func TestE16ResidualWork(t *testing.T) {
	tab, err := E16(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "EXX", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow(1, "x")
	tab.Note("n %d", 5)
	out := tab.Render()
	for _, want := range []string{"EXX", "a", "bb", "1", "x", "note: n 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE06DeviceDependentAtScale(t *testing.T) {
	tab, err := E06(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[2] != "0" {
			t.Errorf("clean bipolar chip flagged: %v", row)
		}
		if row[4] != "1" {
			t.Errorf("broken pair should yield exactly one DEV.NPN.ISO: %v", row)
		}
		if row[5] != "0" {
			t.Errorf("legal resistor ties falsely flagged: %v", row)
		}
	}
}

func TestE17Ablation(t *testing.T) {
	tab, err := E17(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Full DIC: zero false errors; ablated: many.
	if tab.Rows[0][1] != "0" {
		t.Errorf("full DIC not clean: %v", tab.Rows[0])
	}
	if tab.Rows[2][1] == "0" {
		t.Errorf("exemption ablation produced no false errors: %v", tab.Rows[2])
	}
}
