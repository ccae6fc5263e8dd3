//go:build race

package repro

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
