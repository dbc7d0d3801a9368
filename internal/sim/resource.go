package sim

import "fmt"

// Resource models a hardware component as a multi-server FCFS queue:
// `capacity` parallel servers (memory channels, CPU cores, link lanes,
// DMA engines), a fixed per-operation overhead that occupies a server,
// a bytes/second service rate, and a propagation delay that is added to
// the completion time but does not occupy the server (wire latency,
// DRAM access time behind a pipelined controller).
type Resource struct {
	name        string
	capacity    int
	overhead    Duration // occupies a server per operation
	psPerByte   float64  // server occupancy per byte (1e12 / bytesPerSec)
	propagation Duration // added to completion, does not occupy a server

	free serverHeap // min-heap of per-server next-free times
	gaps gapTable   // backfillable idle windows, one start-ordered list per server

	// Accumulated statistics.
	ops      int64
	bytes    int64
	busy     Duration // total server-occupied time
	lastDone Time
}

// gap is an idle window left on a server when an operation started past
// the server's previous frontier. Because requests are walked in issue
// order (see package comment), an operation belonging to a *later*
// request can reach a resource at an *earlier* virtual time than one
// already scheduled; backfilling gaps keeps the resource
// work-conserving under that reordering instead of serializing
// unrelated requests behind idle time.
type gap struct {
	start, end Time
}

// maxGaps bounds the remembered idle windows per resource.
const maxGaps = 4096

// NewResource creates a resource. bytesPerSec <= 0 means the resource
// has no bandwidth component (occupancy is overhead only).
func NewResource(name string, capacity int, overhead Duration, bytesPerSec float64, propagation Duration) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	r := &Resource{
		name:        name,
		capacity:    capacity,
		overhead:    overhead,
		propagation: propagation,
		gaps:        newGapTable(capacity),
	}
	if bytesPerSec > 0 {
		r.psPerByte = float64(Second) / bytesPerSec
	}
	r.free = make(serverHeap, capacity)
	for i := range r.free {
		r.free[i].id = i
	}
	return r
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of parallel servers.
func (r *Resource) Capacity() int { return r.capacity }

// ServiceTime returns the server occupancy for an operation moving the
// given number of bytes, excluding queueing and propagation.
func (r *Resource) ServiceTime(bytes int) Duration {
	return r.overhead + Duration(float64(bytes)*r.psPerByte)
}

// Acquire schedules an operation arriving at `now` that moves `bytes`
// bytes. It returns the time service began (after any queueing) and the
// time the operation completes (including propagation). The byte count
// may be zero for pure-overhead operations (which do not occupy a
// server at all).
func (r *Resource) Acquire(now Time, bytes int) (start, done Time) {
	occupy := r.ServiceTime(bytes)
	r.ops++
	r.bytes += int64(bytes)
	r.busy += occupy
	if occupy == 0 {
		done = now + r.propagation
		if done > r.lastDone {
			r.lastDone = done
		}
		return now, done
	}

	start = r.place(now, occupy)
	done = start + occupy + r.propagation
	if done > r.lastDone {
		r.lastDone = done
	}
	return start, done
}

// place finds the earliest service slot of length occupy at or after
// now: first by backfilling a remembered idle gap, then at the earliest
// server frontier (recording any idle window this opens on that
// server). The gap lookup is indexed (see gapTable) but chooses the
// same slot the original linear scan over the age-ordered gap list
// would have.
func (r *Resource) place(now Time, occupy Duration) Time {
	if r.gaps.mayFit(now, occupy) {
		if k, i, s, ok := r.gaps.search(now, occupy); ok {
			r.gaps.take(k, i, s, occupy)
			return s
		}
	}
	f := &r.free[0]
	start := Max(now, f.at)
	if start > f.at {
		r.gaps.push(f.id, gap{start: f.at, end: start})
	}
	f.at = start + occupy
	r.free.fixRoot()
	return start
}

// Occupy books a server for `dur` starting at or after `now`,
// independent of the resource's byte-rate calibration — used to model
// units that stall for externally computed durations (e.g. a coherence
// controller blocked for a full memory round trip). It returns the
// service window.
func (r *Resource) Occupy(now Time, dur Duration) (start, end Time) {
	if dur <= 0 {
		return now, now
	}
	r.ops++
	r.busy += dur
	start = r.place(now, dur)
	end = start + dur
	if end+r.propagation > r.lastDone {
		r.lastDone = end + r.propagation
	}
	return start, end
}

// Delay is a convenience wrapper for pure-latency operations: it behaves
// like Acquire with zero bytes and returns only the completion time.
func (r *Resource) Delay(now Time) Time {
	_, done := r.Acquire(now, 0)
	return done
}

// NextFree reports the earliest time at which a server is available.
func (r *Resource) NextFree() Time { return r.free[0].at }

// Ops returns the number of operations serviced so far.
func (r *Resource) Ops() int64 { return r.ops }

// Bytes returns the number of bytes serviced so far.
func (r *Resource) Bytes() int64 { return r.bytes }

// BusyTime returns the total accumulated server occupancy.
func (r *Resource) BusyTime() Duration { return r.busy }

// Utilization reports the fraction of aggregate server time occupied
// over the window [0, horizon].
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(horizon) * float64(r.capacity))
}

// Reset clears queue state and statistics, keeping the configuration.
func (r *Resource) Reset() {
	for i := range r.free {
		r.free[i].at = 0
	}
	r.gaps.reset()
	r.ops, r.bytes, r.busy, r.lastDone = 0, 0, 0, 0
}

// serverHeap is a min-heap over per-server next-free times. It inlines
// the one operation Resource needs — restoring the invariant after the
// root's frontier advances — instead of going through container/heap's
// interface, which boxed every element access. The sift order is the
// same as container/heap's down(), so the heap layout (and therefore
// placement under frontier ties) is unchanged. Each entry carries its
// server's id so that a frontier gap lands in that server's gap list;
// comparisons use the time alone.
type serverHeap []server

type server struct {
	at Time // next-free time
	id int
}

// fixRoot is heap.Fix(h, 0) for a root-only mutation.
func (h serverHeap) fixRoot() {
	i := 0
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].at < h[j].at {
			j = j2
		}
		if h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
