//go:build !race

package serve

// raceEnabled reports whether the race detector is instrumenting this test
// binary; allocation-count assertions are skipped under it.
const raceEnabled = false
