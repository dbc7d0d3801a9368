//go:build !race

package experiments

// raceEnabled mirrors internal/sim's: the golden figure regeneration is
// minutes of pure compute and is skipped under the race detector
// (determinism is single-goroutine per job anyway), and the race
// runtime's own allocations would break the steady-state alloc guards.
const raceEnabled = false
