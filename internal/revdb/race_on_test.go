//go:build race

package revdb

// raceEnabled gates allocation-count assertions: the race detector
// changes what escapes and allocates, so testing.AllocsPerRun numbers
// are not meaningful under -race.
const raceEnabled = true
