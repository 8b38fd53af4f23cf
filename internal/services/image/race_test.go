//go:build race

package image

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops entries at random, so allocation ceilings skip.
const raceEnabled = true
