package dic_test

import (
	"fmt"

	dic "repro"
)

// ExampleCheck mirrors the package quickstart: build (or parse) a design,
// run the six-stage design-integrity pipeline, and inspect the result.
// The generated inverter-array chip is rule-clean by construction.
func ExampleCheck() {
	tc := dic.NMOS()
	chip := dic.NewChip(tc, "quickstart", 2, 3)

	report, err := dic.Check(chip.Design, tc, dic.Options{})
	if err != nil {
		fmt.Println("check failed:", err)
		return
	}
	fmt.Println("clean:", report.Clean())
	fmt.Println("netlist:", report.Netlist.Stats())
	for _, v := range report.Errors() {
		fmt.Println(v)
	}
	// Output:
	// clean: true
	// netlist: 10 nets, 32 devices
}

// ExampleEngine shows the incremental session: a cold Check populates the
// content-addressed caches, an edit dirties one definition, and Recheck
// re-derives only what changed while reporting byte-identically to a cold
// run of the edited design.
func ExampleEngine() {
	tc := dic.NMOS()
	chip := dic.NewChipUnique(tc, "session", 4, 4)

	eng := dic.NewEngine(tc, dic.Options{})
	report, err := eng.Check(chip.Design) // cold
	if err != nil {
		fmt.Println("check failed:", err)
		return
	}
	fmt.Println("cold clean:", report.Clean())

	// Edit one row definition: shrink nothing, just add a floating metal
	// probe declared on GND (a warning-free, error-free edit).
	row, _ := chip.Design.Symbol("row2")
	metal, _ := tc.LayerByName("metal")
	row.AddBox(metal, dic.R(-15000, 0, -14250, 1000), "GND")

	report, err = eng.Recheck(chip.Design) // warm: only row2 + chip re-derive
	if err != nil {
		fmt.Println("recheck failed:", err)
		return
	}
	stats := eng.Stats()
	fmt.Println("warm clean:", report.Clean())
	fmt.Printf("dirty symbols: %d of %d\n", stats.DirtySymbols, stats.Symbols)
	// Output:
	// cold clean: true
	// warm clean: true
	// dirty symbols: 2 of 12
}

// quickstartCIF is a two-cell design in extended CIF. The 9D extension
// declares the transistor symbol's device type; the 9N extension attaches
// net names to elements. The second transistor's gate stops flush with
// the channel: the missing gate overlap of the paper's Figure 8, which a
// mask-level checker cannot see.
const quickstartCIF = `
(quickstart: one good transistor, one with a missing gate overlap);
9 quickstart;
DS 1;
9 goodtran;
9D nmos-enh;
L NP; B 500 2000 0 0;
L ND; B 2000 500 0 0;
DF;
DS 2;
9 badtran;
9D nmos-enh;
L NP; B 500 500 0 0;
L ND; B 2000 500 0 0;
DF;
DS 3;
9 top;
9I t1;
C 1 T 0 0;
9I t2;
C 2 T 8000 0;
L ND;
9N in1;
W 500 -500 0 -3000 0;
L ND;
9N out1;
W 500 500 0 3000 0;
L NP;
9N g1;
W 500 0 750 0 3000;
DF;
E
`

// ExampleParseCIF parses an extended-CIF design, checks it, prints the
// extracted netlist, and runs the traditional mask-level baseline over
// the same design: the design-integrity checker flags the transistor
// whose gate does not overlap its channel, and the baseline reports
// nothing.
func ExampleParseCIF() {
	tc := dic.NMOS()
	design, err := dic.ParseCIF(quickstartCIF, tc, "quickstart")
	if err != nil {
		fmt.Println("parse failed:", err)
		return
	}
	st := design.Stats()
	fmt.Printf("parsed %q: %d symbols, %d device instances\n", design.Name, st.Symbols, st.FlatDevices)

	report, err := dic.Check(design, tc, dic.Options{SkipConstruction: true})
	if err != nil {
		fmt.Println("check failed:", err)
		return
	}
	for _, v := range report.Violations {
		fmt.Println(v)
	}
	fmt.Println("netlist:", report.Netlist.Stats())
	for i := range report.Netlist.Nets {
		n := &report.Netlist.Nets[i]
		fmt.Printf("  net %s: elements=%d attachments=%v\n", n.Name, n.Elements, report.Netlist.Signature(n.ID))
	}

	flat, err := dic.CheckFlat(design, tc, dic.FlatOptions{})
	if err != nil {
		fmt.Println("baseline failed:", err)
		return
	}
	fmt.Println("baseline violations:", len(flat.Violations))
	// Output:
	// parsed "quickstart": 3 symbols, 2 device instances
	// error DEV.MOS.GATEEXT at [-250,-750 250,750] [sym badtran]: poly must extend 500 past the channel (gate overlap)
	// error DEV.MOS.SDEXT at [-250,-750 250,750] [sym badtran]: diffusion must extend 500 past the channel (source/drain)
	// netlist: 6 nets, 2 devices
	//   net in1: elements=1 attachments=[nmos-enh:s]
	//   net out1: elements=1 attachments=[nmos-enh:d]
	//   net g1: elements=1 attachments=[nmos-enh:g]
	//   net n3: elements=0 attachments=[nmos-enh:g]
	//   net n4: elements=0 attachments=[nmos-enh:s]
	//   net n5: elements=0 attachments=[nmos-enh:d]
	// baseline violations: 0
}
