//go:build !race

package serve

// raceEnabled reports a race-detector build, under which sync.Pool
// drops items at random, so allocation counts say nothing.
const raceEnabled = false
