package main

import (
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's CPU time so far: user plus system, all
// threads. A paravirtualized guest kernel leaves out the time the host
// stole from its vCPUs, which wall time includes: on a shared host,
// steal alone has doubled a suite run's wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watch reads wall and CPU time together.
type watch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() watch { return watch{time.Now(), cpuTime()} }

// lap returns the wall and CPU time since the watch started or last
// lapped, and restarts it.
func (w *watch) lap() (wall, cpu time.Duration) {
	now := startWatch()
	wall, cpu = now.wall.Sub(w.wall), now.cpu-w.cpu
	*w = now
	return wall, cpu
}

// resetPeakRSS returns free heap to the OS and clears the kernel's
// resident high-water mark, so the next peakRSS reading covers one
// repetition. Where /proc/self/clear_refs is not writable the reading
// stays cumulative for the process.
//
// resetPeakRSS and peakRSS duplicate cmd/rambda-bench's resetPeakRSS
// and peakRSSBytes, which live in a main package this module cannot
// import. They are to merge into one shared package.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the resident high-water mark (VmHWM) in bytes, or 0
// where /proc is unavailable.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// median of vs (the mean of the middle two for an even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs by the method
// of Python's statistics.quantiles(vs, n=4) (the "exclusive" method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
