//go:build !race

package racedetect

// Enabled is false without -race.
const Enabled = false
