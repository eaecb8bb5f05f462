//go:build !race

package ocsp

const raceEnabled = false
