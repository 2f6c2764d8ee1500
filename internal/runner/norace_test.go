//go:build !race

package runner

// raceEnabled reports whether the race detector is on: its
// instrumentation allocates on its own, so allocation counts differ.
const raceEnabled = false
