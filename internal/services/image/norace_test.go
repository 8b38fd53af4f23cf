//go:build !race

package image

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
