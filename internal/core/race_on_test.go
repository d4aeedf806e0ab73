//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build; its allocations make AllocsPerRun guards meaningless.
const raceEnabled = true
