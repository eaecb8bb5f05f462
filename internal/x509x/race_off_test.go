//go:build !race

package x509x

const raceEnabled = false
