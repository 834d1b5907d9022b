//go:build race

package dispatch

// raceEnabled: under -race sync.Pool drops items at random, so the bytes a
// path through a pool allocates are not meaningful.
const raceEnabled = true
