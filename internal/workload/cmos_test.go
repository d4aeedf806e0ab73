package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestCMOSChipClean is the end-to-end acceptance check for the deck-only
// process: the full six-stage pipeline, construction rules included, must
// report zero errors on the generated CMOS chip.
func TestCMOSChipClean(t *testing.T) {
	tc := tech.CMOS()
	chip := NewCMOSChip(tc, "cmos", 3, 4)
	rep, err := core.Check(chip.Design, tc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("clean CMOS chip flagged: %v", v)
	}
	// 2 transistors + 5 contacts per cell, plus one head contact per row.
	wantDevs := 3*4*7 + 3
	if got := chip.DeviceCount(); got != wantDevs {
		t.Fatalf("devices = %d, want %d", got, wantDevs)
	}
	vdd, ok := rep.Netlist.NetByName("VDD")
	if !ok {
		t.Fatal("VDD missing")
	}
	gnd, ok := rep.Netlist.NetByName("GND")
	if !ok {
		t.Fatal("GND missing")
	}
	if vdd == gnd {
		t.Fatal("rails shorted")
	}
	if _, ok := rep.Netlist.NetByName("VSS"); !ok {
		t.Fatal("well substrate-tie net missing")
	}
}

func TestCMOSChipAccidentalTransistor(t *testing.T) {
	tc := tech.CMOS()
	chip := NewCMOSChip(tc, "cmos", 2, 3)
	where := chip.BreakAccidentalTransistor(1)
	rep, err := core.Check(chip.Design, tc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, v := range rep.Errors() {
		if v.Rule == "DEV.ACCIDENTAL" {
			hits++
			if !v.Where.Expand(200).Touches(where) {
				t.Errorf("DEV.ACCIDENTAL at %v, expected near %v", v.Where, where)
			}
		}
	}
	if hits == 0 {
		t.Fatalf("accidental transistor not flagged: %v", rep.Errors())
	}
}
