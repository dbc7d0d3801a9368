//go:build race

package experiments

// See race_off_test.go.
const raceEnabled = true
