//go:build race

package membership

// raceEnabled reports that this test binary runs under the race
// detector, which makes allocation counts vary: sync.Pool (the JSON
// encoder's buffer pool) drops items at random there.
const raceEnabled = true
