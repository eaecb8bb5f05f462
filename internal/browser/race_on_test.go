//go:build race

package browser

// raceEnabled gates allocation-count assertions: testing.AllocsPerRun
// numbers are not meaningful under -race.
const raceEnabled = true
