//go:build !race

package fl_test

const raceEnabled = false
