//go:build race

package mpi

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a share of what it is given, so the buffer pool's
// zero-allocation assertion does not hold.
const raceEnabled = true
