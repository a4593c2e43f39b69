//go:build race

package transport

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation allocates on paths that otherwise
// allocate nothing, so allocation counts are not comparable there.
const raceEnabled = true
