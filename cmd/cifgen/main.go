// Command cifgen emits synthetic workload chips as extended CIF: the
// inverter-array designs the experiments run on, optionally with seeded
// ground-truth errors, so dicheck (or any other CIF consumer) can be
// exercised on reproducible inputs.
//
// Usage:
//
//	cifgen [flags] > chip.cif
//
//	-tech nmos|cmos|bipolar  workload family and technology (default nmos)
//	-deck FILE  load the technology from a rule deck instead of the
//	            shipped one; it must stay layer- and device-compatible with
//	            the -tech workload family (e.g. an edited nmos.deck)
//	-rows N     rows of cells (default 4)
//	-cols N     columns of cells (default 5; pair count for bipolar)
//	-errors N   inject N seeded errors (nmos only, default 0)
//	-seed N     injection seed (default 1980)
//	-o FILE     write to FILE instead of stdout
//	-truth      print the injected ground truth to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	dic "repro"
	"repro/internal/cif"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/workload"
)

func main() {
	techName := flag.String("tech", "nmos",
		fmt.Sprintf("workload family and technology: %s", strings.Join(tech.Names(), ", ")))
	deckFile := flag.String("deck", "", "load the technology from a rule deck file")
	rows := flag.Int("rows", 4, "rows of cells")
	cols := flag.Int("cols", 5, "columns of cells (pair count for bipolar)")
	errs := flag.Int("errors", 0, "inject N seeded errors (nmos only)")
	seed := flag.Int64("seed", 1980, "injection seed")
	out := flag.String("o", "", "output file (default stdout)")
	truth := flag.Bool("truth", false, "print injected ground truth to stderr")
	flag.Parse()

	if *rows < 1 || *cols < 1 {
		fatalf("rows and cols must be positive")
	}
	tc, err := dic.ResolveTechnology(*techName, *deckFile)
	if err != nil {
		fatalf("%v", err)
	}
	if *errs > 0 && *techName != "nmos" {
		fatalf("-errors is only supported for the nmos workload")
	}
	// A substituted deck must still carry the layers and device types the
	// chosen workload family is built from — the generators resolve them
	// by name, so a mismatched deck would otherwise emit garbage geometry
	// silently (everything landing on layer 0).
	if err := checkFamily(tc, *techName); err != nil {
		fatalf("%v", err)
	}

	// The bipolar family is a one-dimensional strip: -rows does not apply
	// and stays out of the design name.
	name := fmt.Sprintf("gen-%s-%dx%d", *techName, *rows, *cols)
	if *techName == "bipolar" {
		name = fmt.Sprintf("gen-bipolar-%d", *cols)
	}
	var design *layout.Design
	var cells int
	switch *techName {
	case "nmos":
		chip := workload.NewChip(tc, name, *rows, *cols)
		cells = *rows * *cols
		if *errs > 0 {
			injected := workload.InjectErrors(chip, *errs, *seed)
			if *truth {
				for i, inj := range injected {
					fmt.Fprintf(os.Stderr, "truth %d: %v at %v %s\n", i, inj.Kind, inj.Where, inj.Symbol)
				}
			}
		}
		design = chip.Design
	case "cmos":
		chip := workload.NewCMOSChip(tc, name, *rows, *cols)
		cells = *rows * *cols
		design = chip.Design
	case "bipolar":
		chip := workload.NewBipolarChip(tc, name, *cols)
		cells = *cols
		design = chip.Design
	default:
		fatalf("no workload generator for technology %q", *techName)
	}

	text, err := cif.Write(design, tc)
	if err != nil {
		fatalf("write: %v", err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if _, err := w.WriteString(text); err != nil {
		fatalf("%v", err)
	}
	st := design.Stats()
	fmt.Fprintf(os.Stderr, "cifgen: %d cells, %d devices, %d flat elements\n",
		cells, st.FlatDevices, st.FlatElements)
}

// checkFamily verifies the technology provides every layer and device
// type the named workload family's generator resolves by name.
func checkFamily(tc *tech.Technology, family string) error {
	var layers, devices []string
	switch family {
	case "nmos":
		layers = []string{tech.NMOSDiff, tech.NMOSPoly, tech.NMOSMetal, tech.NMOSContact, tech.NMOSImplant, tech.NMOSBuried}
		devices = []string{tech.DevNMOSEnh, tech.DevNMOSPullup, tech.DevContactDiff, tech.DevContactPoly, tech.DevButting}
	case "cmos":
		layers = []string{tech.CMOSWell, tech.CMOSNDiff, tech.CMOSPDiff, tech.CMOSPoly, tech.CMOSContact, tech.CMOSMetal}
		devices = []string{tech.DevCMOSNMOS, tech.DevCMOSPMOS, tech.DevContactNDiff, tech.DevContactPDiff, tech.DevContactCPoly}
	case "bipolar":
		layers = []string{tech.BipIso, tech.BipBase, tech.BipEmitter}
		devices = []string{tech.DevNPN, tech.DevResistorBase}
	}
	for _, l := range layers {
		if _, ok := tc.LayerByName(l); !ok {
			return fmt.Errorf("technology %q has no layer %q required by the %s workload (wrong -deck for -tech %s?)",
				tc.Name, l, family, family)
		}
	}
	for _, d := range devices {
		if _, ok := tc.Device(d); !ok {
			return fmt.Errorf("technology %q has no device type %q required by the %s workload (wrong -deck for -tech %s?)",
				tc.Name, d, family, family)
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cifgen: "+format+"\n", args...)
	os.Exit(2)
}
