//go:build race

package session

// raceEnabled reports that this test binary runs under the race
// detector; the 500-node cluster test skips itself there (a full-scale
// cluster under race instrumentation is minutes of wall clock, and the
// CI cluster-smoke job covers the racy paths at 50 nodes), and so does
// the live-heap comparison of TestLiveRunReleasesDeliveredFrames (race
// instrumentation owns the heap).
const raceEnabled = true
