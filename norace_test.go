//go:build !race

package fedwcm

const raceEnabled = false
