//go:build race

package bench

// raceEnabled reports whether the race detector instruments this build,
// under which the kill-point sweep runs a strided subset of its points.
const raceEnabled = true
