package main

// Seeded input generation. Everything the program under test receives —
// CIF text, technology names, edit batches — is made here from the seed;
// the checker, the engine and the daemon never see the seed itself.

import (
	"fmt"
	"math/rand"

	dic "repro"
	"repro/internal/cif"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Workload sizes. batch-cold checks 24×24 rather than the 32×32 of the
// CheckCold kernel: at 32×32 one op costs ≈130 ms on two cores, which
// leaves fewer than 200 timed ops — and so no p95 — in a 20 s run.
const (
	batchTexts  = 4
	batchRows   = 24
	batchErrors = 14

	editRows = 64

	pollSessions = 64
	pollRows     = 8
	slivers      = 20

	churnResident = 16
)

// churnShapes are the four arrays served-churn creates sessions from: the
// same cells at different row/column counts, the shared-cell-library
// traffic of ROADMAP item 5.
var churnShapes = [][2]int{{12, 16}, {16, 16}, {16, 12}, {20, 12}}

// design is one generated layout in the form the program receives it.
type design struct {
	Tech  string // registry name handed to ResolveTechnology / CreateRequest.Tech
	Name  string
	CIF   string
	Truth []dic.Injected // injected ground truth (batch-cold only)
}

// scriptOp is one edit batch of a script with the class the metrics
// group it under.
type scriptOp struct {
	Class string        `json:"class"`
	Edits []layout.Edit `json:"edits"`
}

// Edit classes of the edit-loop script.
const (
	classWindow = "window" // move the floating top-level probe: window-patchable
	classSymbol = "symbol" // move an element inside one row definition
	classStruct = "struct" // add/delete a top-level box, or move a row call
)

func writeCIF(d *layout.Design, tc *tech.Technology) (string, error) {
	src, err := cif.Write(d, tc)
	if err != nil {
		return "", fmt.Errorf("write cif %s: %w", d.Name, err)
	}
	return src, nil
}

// batchColdInputs builds the four unique-row nMOS chips, each with its own
// injected errors and the ground truth that scores the verdict.
func batchColdInputs(seed int64) ([]design, error) {
	tc := dic.NMOS()
	out := make([]design, batchTexts)
	for i := range out {
		name := fmt.Sprintf("cold%d", i)
		chip := dic.NewChipUnique(tc, name, batchRows, batchRows)
		truth := dic.InjectErrors(chip, batchErrors, seed+int64(i))
		src, err := writeCIF(chip.Design, tc)
		if err != nil {
			return nil, err
		}
		out[i] = design{Tech: "nmos", Name: name, CIF: src, Truth: truth}
	}
	return out, nil
}

// sliverBoxes returns n sub-minimum-width metal boxes west of the array,
// far enough apart to interact with nothing: each is one width violation,
// so reports carry realistic weight. w is below the metal minimum width.
func sliverBoxes(rng *rand.Rand, n int, x0, w, h, pitch int64) [][]int64 {
	out := make([][]int64, n)
	for j := range out {
		x := x0 - int64(rng.Intn(8))*w
		y := -20000 - int64(j)*pitch + int64(rng.Intn(8))*w
		out[j] = []int64{x, y, x + w, y + h}
	}
	return out
}

// editLoopInputs builds the rows×rows unique-row nMOS chip (64×64 in the
// workload) with a floating probe box as the last top-level element, and
// one cycle of the edit script.
func editLoopInputs(seed int64, rows int) (d design, script []scriptOp, err error) {
	rng := rand.New(rand.NewSource(seed))
	tc := dic.NMOS()
	chip := dic.NewChipUnique(tc, "chip", rows, rows)
	metal, _ := tc.LayerByName(tech.NMOSMetal)
	x0 := -30000 - int64(rng.Intn(16))*250
	y0 := int64(rng.Intn(16)) * 250
	chip.Design.Top.AddBox(metal, geom.R(x0, y0, x0+2000, y0+2000), "")
	probe := len(chip.Design.Top.Elements) - 1
	src, err := writeCIF(chip.Design, tc)
	if err != nil {
		return design{}, nil, err
	}
	return design{Tech: "nmos", Name: "chip", CIF: src}, editLoopScript(rng, rows, probe, x0), nil
}

// editLoopScript returns one cycle of 400 single-edit batches with fixed
// class shares — 60 % window, 25 % symbol, 10 % violate-heal, 5 % call —
// in a seeded order. Every displacement is paired with its inverse inside
// the cycle, so a completed cycle leaves the design where it started. The
// violate-heal and call edits both restructure the top symbol, which is
// why the metrics report them as one class.
func editLoopScript(rng *rand.Rand, rows, probe int, x0 int64) []scriptOp {
	const (
		nWindow = 240
		nSymbol = 100
		nSliver = 40
		nCall   = 20
	)
	// Targets: each drawn row appears twice, so whichever visit comes
	// first displaces it and the next restores it.
	symRows := pairedTargets(rng, nSymbol/2, rows)
	callRows := pairedTargets(rng, nCall/2, rows)

	classes := make([]byte, 0, nWindow+nSymbol+nSliver+nCall)
	for _, c := range []struct {
		tag byte
		n   int
	}{{'w', nWindow}, {'s', nSymbol}, {'v', nSliver}, {'c', nCall}} {
		for i := 0; i < c.n; i++ {
			classes = append(classes, c.tag)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	dy := int64(250 * (1 + rng.Intn(3)))
	symOut := map[int]bool{}
	callOut := map[int]bool{}
	sliverOut := false
	script := make([]scriptOp, 0, len(classes))
	for _, c := range classes {
		var op scriptOp
		switch c {
		case 'w':
			op = scriptOp{classWindow, []layout.Edit{{Op: layout.OpMoveElement, Symbol: "chip", Index: probe, DY: dy}}}
			dy = -dy
		case 's':
			r := symRows[0]
			symRows = symRows[1:]
			d := int64(250)
			if symOut[r] {
				d = -d
			}
			symOut[r] = !symOut[r]
			// Element 0 of a row is the input-head poly wire.
			op = scriptOp{classSymbol, []layout.Edit{{Op: layout.OpMoveElement, Symbol: fmt.Sprintf("row%d", r), Index: 0, DY: d}}}
		case 'v':
			if sliverOut {
				op = scriptOp{classStruct, []layout.Edit{{Op: layout.OpDeleteElement, Symbol: "chip", Index: -1}}}
			} else {
				x := x0 - 10000 - int64(rng.Intn(16))*250
				op = scriptOp{classStruct, []layout.Edit{{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.NMOSMetal,
					Box: []int64{x, -20000, x + 250, -17500}}}}
			}
			sliverOut = !sliverOut
		case 'c':
			r := callRows[0]
			callRows = callRows[1:]
			d := int64(-250)
			if callOut[r] {
				d = -d
			}
			callOut[r] = !callOut[r]
			op = scriptOp{classStruct, []layout.Edit{{Op: layout.OpMoveCall, Symbol: "chip", Index: r, DX: d}}}
		}
		script = append(script, op)
	}
	return script
}

// pairedTargets draws n targets below limit and returns each twice,
// shuffled.
func pairedTargets(rng *rand.Rand, n, limit int) []int {
	out := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		t := rng.Intn(limit)
		out = append(out, t, t)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pollSession is one served-poll session's inputs: the seed batch applied
// right after create (slivers, then the probe so index -1 addresses it)
// and the probe move the op alternates.
type pollSession struct {
	Seed []layout.Edit
	DY   int64
}

// servedPollInputs builds the shared 8×8 CMOS array and the per-session
// seed batches.
func servedPollInputs(seed int64) (design, []pollSession, error) {
	rng := rand.New(rand.NewSource(seed))
	tc := dic.CMOS()
	chip := dic.NewCMOSChip(tc, "chip", pollRows, pollRows)
	src, err := writeCIF(chip.Design, tc)
	if err != nil {
		return design{}, nil, err
	}
	sessions := make([]pollSession, pollSessions)
	for i := range sessions {
		x0 := -30000 - int64(rng.Intn(16))*100
		var edits []layout.Edit
		for _, box := range sliverBoxes(rng, slivers, x0, 100, 1000, 5000) {
			edits = append(edits, layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal, Box: box})
		}
		edits = append(edits, layout.Edit{Op: layout.OpAddBox, Symbol: "chip", Layer: tech.CMOSMetal,
			Box: []int64{x0, 0, x0 + 1000, 1000}})
		sessions[i] = pollSession{Seed: edits, DY: int64(100 * (2 + rng.Intn(4)))}
	}
	return design{Tech: "cmos", Name: "chip", CIF: src}, sessions, nil
}

// pollMove is the edit batch of a session's v-th visit: the probe moves
// out on even visits and back on odd ones.
func (s pollSession) pollMove(visit int) []layout.Edit {
	dy := s.DY
	if visit%2 == 1 {
		dy = -dy
	}
	return []layout.Edit{{Op: layout.OpMoveElement, Symbol: "chip", Index: -1, DY: dy}}
}

// servedChurnInputs builds the four CMOS arrays served-churn creates
// sessions from, slivers baked into the CIF text.
func servedChurnInputs(seed int64) ([]design, error) {
	rng := rand.New(rand.NewSource(seed))
	tc := dic.CMOS()
	metal, _ := tc.LayerByName(tech.CMOSMetal)
	out := make([]design, len(churnShapes))
	for i, shape := range churnShapes {
		name := fmt.Sprintf("lib%d", i)
		chip := dic.NewCMOSChip(tc, name, shape[0], shape[1])
		for _, b := range sliverBoxes(rng, slivers, -30000, 100, 1000, 5000) {
			chip.Design.Top.AddBox(metal, geom.R(b[0], b[1], b[2], b[3]), "")
		}
		src, err := writeCIF(chip.Design, tc)
		if err != nil {
			return nil, err
		}
		out[i] = design{Tech: "cmos", Name: name, CIF: src}
	}
	return out, nil
}
