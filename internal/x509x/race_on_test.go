//go:build race

package x509x

// raceEnabled gates allocation-count assertions: the race detector
// inhibits inlining/escape optimizations, so testing.AllocsPerRun
// numbers are not meaningful under -race.
const raceEnabled = true
