package sim

// Benchmark kernels for the engine's hot paths, shared between the
// package's testing.B benchmarks (sim_bench_test.go) and the
// cmd/rambda-bench harness, which times the same work via
// testing.Benchmark and records it in BENCH_*.json. Each kernel runs n
// operations and returns a value derived from the simulation so the
// compiler cannot elide the work.

// BenchAcquireGapFree drives n Acquires that never open or backfill an
// idle window: every arrival is at t=0, which never leads the server
// frontier. This isolates the frontier/heap path.
func BenchAcquireGapFree(n int) Time {
	r := NewResource("bench:gapfree", 4, 20*Nanosecond, 16e9, 100*Nanosecond)
	var done Time
	for i := 0; i < n; i++ {
		_, done = r.Acquire(0, 64)
	}
	return done
}

// BenchAcquireGapHeavy drives n Acquires through a churning gap
// population: periodic leaps past the frontier open idle windows,
// backdated arrivals backfill and split them. This is the regime the
// gap lists exist for.
func BenchAcquireGapHeavy(n int) Time {
	r := NewResource("bench:gapheavy", 2, 0, 16e9, 0)
	rng := NewRNG(42)
	now := Time(0)
	var done Time
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			// Leap ahead, opening an idle window behind the new op.
			now += Duration(rng.Intn(int(4*Microsecond)) + int(Microsecond))
			_, done = r.Acquire(now, 4096)
			continue
		}
		// Backdated arrival: lands inside or before recent windows.
		back := now - Duration(rng.Intn(int(8*Microsecond)))
		if back < 0 {
			back = 0
		}
		_, done = r.Acquire(back, rng.Intn(2048)+1)
	}
	return done
}

// BenchAcquireGapSaturated holds the gap table at its maxGaps capacity:
// every op records a fresh window (evicting the oldest) and no window
// is ever large enough to backfill, so every lookup is a miss. This was
// the flat slice's worst case — a full O(gaps) scan plus a 64 KiB
// memmove per op — and is the regression kernel for the O(1)
// oldest-drop.
func BenchAcquireGapSaturated(n int) Time {
	r := NewResource("bench:gapsat", 1, 0, 1e9, 0) // 1 byte = 1ns
	now := Time(0)
	var done Time
	for i := 0; i < n; i++ {
		// Occupancy 1us per op, arrivals 1.5us apart: each op opens an
		// unfillable 0.5us window behind itself.
		now += 1500 * Nanosecond
		_, done = r.Acquire(now, 1000)
	}
	return done
}

// BenchAcquireBackfillMix reproduces the regime that dominates the
// saturated KVS runs (a DRAM-like resource with six channels): arrivals
// alternate between the current front of the simulation and the later
// stage of a request issued ~16us earlier, so the table sits at maxGaps
// and two generations of windows interleave in age order. Current
// arrivals open windows at the frontier; backdated ones backfill the
// window straddling them. This is the kernel for the gap lists'
// backdated predecessor lookups.
func BenchAcquireBackfillMix(n int) Time {
	r := NewResource("bench:backfill", 6, 0, 25e9, 0)
	rng := NewRNG(5)
	now := Time(0)
	var done Time
	for i := 0; i < n; i++ {
		now += Duration(rng.Intn(int(20 * Nanosecond)))
		at := now
		if i%2 == 1 {
			at = max(0, now-16*Microsecond+Duration(rng.Intn(int(100*Nanosecond))))
		}
		_, done = r.Acquire(at, 64*(1+rng.Intn(4)))
	}
	return done
}

// BenchAcquireShortGapsLongOps reproduces the shape of fig13's DRAM
// channels: six servers, 39 ns operations, and a frontier that leaves a
// gap of about 11 ns behind each one. Every other operation arrives
// ~2.5 us behind the frontier, where each server holds about 30 gaps and
// every one is too short for it, so the search must rule all of them
// out before the operation falls back to a frontier. This is the kernel
// for the gap lists' suffix bound. (The shape is an equilibrium: one
// gap long enough to backfill moves a lagging operation off the
// frontier, which lengthens the next gaps.)
func BenchAcquireShortGapsLongOps(n int) Time {
	r := NewResource("bench:shortgaps", 6, 39*Nanosecond, 0, 0)
	arrivals := shortGapArrivals{rng: NewRNG(13)}
	var done Time
	for i := 0; i < n; i++ {
		_, done = r.Acquire(arrivals.next(), 0)
	}
	return done
}

// shortGapArrivals generates BenchAcquireShortGapsLongOps's arrival
// times. Front arrivals step 13-16.7 ns: each server then serves a
// front and a lagging operation (78 ns) per ~89 ns, and the front one
// opens an ~11 ns gap behind the server's frontier.
type shortGapArrivals struct {
	rng     *RNG
	now     Time
	lagging bool
}

func (a *shortGapArrivals) next() Time {
	a.lagging = !a.lagging
	if a.lagging {
		return max(0, a.now-2500*Nanosecond-Duration(a.rng.Intn(int(100*Nanosecond))))
	}
	a.now += 13*Nanosecond + Duration(a.rng.Intn(int(3700*Picosecond)))
	return a.now
}

// BenchClosedLoop runs one closed loop of ~n requests (32 clients over
// a capacity-4 resource with jittered think time), exercising the
// event-heap push/pop per request alongside placement.
func BenchClosedLoop(n int) float64 {
	per := n / 32
	if per < 1 {
		per = 1
	}
	r := NewResource("bench:srv", 4, 2*Microsecond, 0, 0)
	res := ClosedLoop{
		Clients:   32,
		PerClient: per,
		Think:     Microsecond,
		Jitter:    Microsecond,
		Stagger:   100 * Nanosecond,
	}.Run(func(_ int, issue Time) Time {
		_, done := r.Acquire(issue, 0)
		return done
	})
	return res.Throughput
}

// BenchHistogramRecord records n samples through the thinning path
// (cap 1<<16, so large n exercises several stride doublings).
func BenchHistogramRecord(n int) Time {
	h := NewHistogram(1 << 16)
	rng := NewRNG(7)
	for i := 0; i < n; i++ {
		h.Record(Duration(rng.Intn(int(Millisecond))))
	}
	return h.Max()
}

// BenchHistogramPercentile queries P50/P99/P999 n times on a 32k-sample
// histogram — the per-sweep-point reporting pattern, which the cached
// sorted view turns from three sorts into one.
func BenchHistogramPercentile(n int) Time {
	h := NewHistogram(0)
	rng := NewRNG(11)
	for i := 0; i < 1<<15; i++ {
		h.Record(Duration(rng.Intn(int(Millisecond))))
	}
	var acc Time
	for i := 0; i < n; i++ {
		acc += h.P50() + h.P99() + h.P999()
	}
	return acc
}

// BenchRNG draws n raw values from the xoshiro core. Besides covering
// the innermost stochastic primitive, rambda-bench uses this kernel as
// the machine-speed calibration reference: regression checks compare
// each microbenchmark's ns/op normalized by this kernel's, so a
// committed baseline stays meaningful on faster or slower hardware.
func BenchRNG(n int) uint64 {
	rng := NewRNG(1)
	var acc uint64
	for i := 0; i < n; i++ {
		acc += rng.Uint64()
	}
	return acc
}

// BenchZipf draws n values from the paper's YCSB-style skewed key
// distribution.
func BenchZipf(n int) uint64 {
	z := NewZipf(NewRNG(3), 1<<16, 0.99)
	var acc uint64
	for i := 0; i < n; i++ {
		acc += z.Next()
	}
	return acc
}
