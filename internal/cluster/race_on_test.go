//go:build race

package cluster

// raceDetector reports that the tests run under the race detector, which
// slows the in-process shards and makes sync.Pool drop a quarter of all
// Puts on purpose.
const raceDetector = true
