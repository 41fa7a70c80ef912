//go:build !race

package graph_test

// raceEnabled reports whether this test binary was built with the race
// detector; allocation-count assertions gate on it because the detector
// instruments allocations of its own.
const raceEnabled = false
