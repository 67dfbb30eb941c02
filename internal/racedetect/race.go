//go:build race

// Package racedetect reports whether the binary was built with the race
// detector. Tests use it to skip allocation pins (the detector's shadow
// allocations and its sync.Pool perturbation change the counts) and
// comparisons of contended timelines, which the detector's slowdown
// reorders.
package racedetect

// Enabled is true under -race.
const Enabled = true
