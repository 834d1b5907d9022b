//go:build race

package fl_test

// raceEnabled: under -race sync.Pool drops a quarter of what is Put, so
// tests that count reused worker kits or allocated bytes skip there.
const raceEnabled = true
