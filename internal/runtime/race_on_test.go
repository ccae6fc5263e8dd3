//go:build race

package runtime

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
