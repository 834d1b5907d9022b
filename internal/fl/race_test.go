//go:build race

package fl_test

// raceEnabled: under -race sync.Pool drops a quarter of what is Put, so
// tests that count allocations of pool-backed paths (tensor's GEMM panels)
// skip there. Worker kits are not pool-backed: their reuse is asserted
// under -race too.
const raceEnabled = true
