//go:build race

package graph_test

// raceEnabled reports whether this test binary was built with the race
// detector; see race_off_test.go.
const raceEnabled = true
