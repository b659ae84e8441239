//go:build !race

package cluster

// raceDetector: see race_on_test.go.
const raceDetector = false
