//go:build !race

package sim

// raceEnabled scales down stress-test sizes when the race detector
// multiplies per-op cost, and skips the steady-state allocation guard,
// whose counts its instrumentation distorts.
const raceEnabled = false
