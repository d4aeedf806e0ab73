//go:build !race

package netlist

// raceEnabled reports whether the race detector is instrumenting this
// build; its allocations make AllocsPerRun guards meaningless.
const raceEnabled = false
