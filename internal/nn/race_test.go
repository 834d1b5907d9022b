//go:build race

package nn

// raceEnabled: under -race sync.Pool drops a quarter of what is Put, so
// allocation counts of pool-backed paths are not meaningful.
const raceEnabled = true
