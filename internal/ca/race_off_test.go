//go:build !race

package ca

const raceEnabled = false
