//go:build !race

package lsm

// raceEnabled skips steady-state allocation guards when the race
// detector's instrumentation would distort the counts.
const raceEnabled = false
