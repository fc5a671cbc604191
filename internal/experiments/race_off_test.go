//go:build !race

package experiments

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own and voids allocation counts.
const raceEnabled = false
