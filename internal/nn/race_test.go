//go:build race

package nn

// raceEnabled: under -race tensor's GEMM panel sync.Pool drops a quarter of
// what is Put, so allocation counts of paths through it are not meaningful.
const raceEnabled = true
