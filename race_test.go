//go:build race

package fedwcm

// raceEnabled: the race detector slows the hot paths several-fold, so
// their timing bounds do not hold under it.
const raceEnabled = true
