//go:build race

package hist

// raceEnabled gates the record-path timing assertion: the race detector
// instruments every memory access and multiplies the cost of a Record
// call several times over.
const raceEnabled = true
