//go:build !race

package repro

const raceDetector = false
