//go:build !race

package linkstore

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
