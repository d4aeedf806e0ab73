package workload

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/tech"
)

func TestChipStructure(t *testing.T) {
	tc := tech.NMOS()
	chip := NewChip(tc, "t", 3, 4)
	if err := chip.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	st := chip.Design.Stats()
	// One cell definition, one row definition, shared across instances.
	if st.Symbols != 1 /*chip*/ +1 /*row*/ +1 /*inv*/ +6 /*library*/ {
		t.Fatalf("symbols = %d", st.Symbols)
	}
	// 5 devices per cell plus one input head per row.
	wantDevs := 3*4*5 + 3
	if st.FlatDevices != wantDevs {
		t.Fatalf("flat devices = %d, want %d", st.FlatDevices, wantDevs)
	}
	if chip.DeviceCount() != wantDevs {
		t.Fatalf("DeviceCount = %d", chip.DeviceCount())
	}
}

func TestChipNetlistElectricallyComplete(t *testing.T) {
	tc := tech.NMOS()
	chip := NewChip(tc, "t", 2, 3)
	nl, issues, err := netlist.Extract(chip.Design, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range issues {
		t.Errorf("netlist issue on clean chip: %v", is)
	}
	// Single global rails.
	vdd, ok := nl.NetByName("VDD")
	if !ok {
		t.Fatal("VDD missing")
	}
	gnd, ok := nl.NetByName("GND")
	if !ok {
		t.Fatal("GND missing")
	}
	if vdd == gnd {
		t.Fatal("rails shorted in clean chip")
	}
	// Construction rules must be quiet: every net has >= 2 terminals.
	cr := netlist.ConstructionRules(nl, chip.Design.Top.Name, tc)
	for _, is := range cr {
		t.Errorf("construction issue on clean chip: %v", is)
	}
	// Each cell contributes one output net carrying pulldown drain, pullup
	// source(+gate), butting contact, and the next pulldown's gate.
	if nl.NumNets() < 2*3 {
		t.Fatalf("nets = %d, too few", nl.NumNets())
	}
}

func TestInjectErrorsGroundTruth(t *testing.T) {
	tc := tech.NMOS()
	chip := NewChip(tc, "t", 3, 3)
	inj := InjectErrors(chip, 9, 1)
	if len(inj) != 9 {
		t.Fatalf("injected = %d", len(inj))
	}
	kinds := map[ErrorKind]int{}
	for _, i := range inj {
		kinds[i.Kind]++
		if i.Kind != ErrGateExt && i.Where.Empty() {
			t.Errorf("injection %v has no location", i.Kind)
		}
		if len(i.DICRules) == 0 {
			t.Errorf("injection %v has no DIC rules", i.Kind)
		}
	}
	// All seven kinds appear when n >= 7.
	if len(kinds) != int(numErrorKinds) {
		t.Fatalf("kinds = %v", kinds)
	}
	// Deterministic under the same seed.
	chip2 := NewChip(tc, "t2", 3, 3)
	inj2 := InjectErrors(chip2, 9, 1)
	for i := range inj {
		if inj[i].Kind != inj2[i].Kind || inj[i].Where != inj2[i].Where {
			t.Fatalf("injection not deterministic at %d", i)
		}
	}
}

func TestInjectErrorsCappedAtCells(t *testing.T) {
	tc := tech.NMOS()
	chip := NewChip(tc, "t", 1, 2)
	inj := InjectErrors(chip, 50, 3)
	if len(inj) != 2 {
		t.Fatalf("injected = %d, want 2 (one per cell)", len(inj))
	}
}

func TestPathologiesBuild(t *testing.T) {
	ps := AllPathologies()
	if len(ps) != 9 {
		t.Fatalf("pathologies = %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Design.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate pathology name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Figure == "" || p.Notes == "" {
			t.Errorf("%s: missing documentation", p.Name)
		}
	}
}
