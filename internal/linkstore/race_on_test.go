//go:build race

package linkstore

// raceEnabled reports whether the race detector is compiled in.
// Allocation-count assertions skip under it: the race runtime's shadow
// bookkeeping allocates on paths that are allocation-free in normal
// builds, so AllocsPerRun is not meaningful there.
const raceEnabled = true
