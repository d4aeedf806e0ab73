package layout

// The from-scratch oracle of hash_test.go, exported to the package's
// external test binary only: the edit-script property test needs the
// engine beside it, and the engine imports this package.
var RequireScratchEqual = requireScratchEqual
