//go:build race

package corpus

// raceEnabled gates the throughput ratio: the race detector instruments
// the two engines' memory accesses unequally, so their relative speed
// under -race says nothing about the program.
const raceEnabled = true
