//go:build !race

package revdb

const raceEnabled = false
