package sim

// RequestFunc executes one simulated request issued by client at the
// given virtual time and returns its completion time. Implementations
// walk the request through the modeled resources.
type RequestFunc func(client int, issue Time) (done Time)

// Result summarizes a load-driver run.
type Result struct {
	Requests   int64
	Start      Time // first issue
	End        Time // last completion
	Latency    *Histogram
	ThinkTime  Duration
	Clients    int
	PerClient  int
	Throughput float64 // requests per (virtual) second
}

// ops/sec over the span from first issue to last completion.
func throughput(requests int64, start, end Time) float64 {
	span := end - start
	if span <= 0 {
		return 0
	}
	return float64(requests) / span.Seconds()
}

// clientEvent orders clients by next issue time (ties by id for
// determinism).
type clientEvent struct {
	next Time
	id   int
}

// clientHeap is a typed min-heap over clientEvents. The load drivers
// pop and push one event per simulated request, so the container/heap
// version boxed (allocated) every request; the typed heap is
// allocation-free. init/push/pop perform the same sifts in the same
// order as container/heap, so the event order — and therefore every
// downstream placement decision — is unchanged.
type clientHeap []clientEvent

func (h clientHeap) less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].id < h[j].id
}

// init establishes the heap invariant (heap.Init).
func (h clientHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push appends ev and sifts it up (heap.Push).
func (h *clientHeap) push(ev clientEvent) {
	*h = append(*h, ev)
	j := len(*h) - 1
	s := *h
	for {
		i := (j - 1) / 2
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the minimum event (heap.Pop).
func (h *clientHeap) pop() clientEvent {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	ev := s[n]
	*h = s[:n]
	return ev
}

func (h clientHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ClosedLoop drives `clients` concurrent closed-loop clients, each
// issuing `perClient` back-to-back requests (a new request is issued
// the moment the previous one completes, plus think time). Requests
// are walked in global issue order.
type ClosedLoop struct {
	Clients   int
	PerClient int
	Think     Duration // per-client delay between completion and next issue
	Warmup    int      // per-client requests excluded from latency stats
	// Stagger offsets client i's first issue by i*Stagger, breaking the
	// synchronized-burst artifact of all clients starting at t=0 (real
	// load generators never phase-align hundreds of connections).
	Stagger Duration
	// Jitter adds a uniform random [0, Jitter) think delay per request,
	// preventing deterministic-latency lockstep between clients. The
	// stream is seeded deterministically (JitterSeed).
	Jitter     Duration
	JitterSeed uint64
}

// Run executes the closed loop over fn and returns aggregate results.
func (c ClosedLoop) Run(fn RequestFunc) *Result {
	if c.Clients <= 0 || c.PerClient <= 0 {
		return &Result{Latency: NewHistogram(0)}
	}
	res := &Result{
		Latency:   NewHistogram(0),
		Clients:   c.Clients,
		PerClient: c.PerClient,
		ThinkTime: c.Think,
		Start:     MaxTime,
	}
	issued := make([]int, c.Clients)
	var rng *RNG
	if c.Jitter > 0 {
		rng = NewRNG(c.JitterSeed + 0x5EED)
	}
	h := make(clientHeap, 0, c.Clients)
	for i := 0; i < c.Clients; i++ {
		h = append(h, clientEvent{next: Time(i) * c.Stagger, id: i})
	}
	h.init()
	for len(h) > 0 {
		ev := h.pop()
		issue := ev.next
		done := fn(ev.id, issue)
		if done < issue {
			done = issue
		}
		issued[ev.id]++
		res.Requests++
		if issue < res.Start {
			res.Start = issue
		}
		if done > res.End {
			res.End = done
		}
		if issued[ev.id] > c.Warmup {
			res.Latency.Record(done - issue)
		}
		if issued[ev.id] < c.PerClient {
			next := done + c.Think
			if rng != nil {
				next += Time(rng.Uint64n(uint64(c.Jitter)))
			}
			h.push(clientEvent{next: next, id: ev.id})
		}
	}
	res.Throughput = throughput(res.Requests, res.Start, res.End)
	return res
}

// OpenLoop issues requests at a fixed rate from `clients` independent
// sources, regardless of completions — useful for offered-load
// experiments such as a DMA engine streaming at a constant rate.
type OpenLoop struct {
	Clients  int
	PerCli   int
	Interval Duration // inter-arrival time per client
	Warmup   int      // per-client requests excluded from latency stats
}

// Run executes the open loop over fn.
func (o OpenLoop) Run(fn RequestFunc) *Result {
	if o.Clients <= 0 || o.PerCli <= 0 {
		return &Result{Latency: NewHistogram(0)}
	}
	res := &Result{
		Latency:   NewHistogram(0),
		Clients:   o.Clients,
		PerClient: o.PerCli,
		Start:     MaxTime,
	}
	h := make(clientHeap, 0, o.Clients)
	for i := 0; i < o.Clients; i++ {
		h = append(h, clientEvent{next: 0, id: i})
	}
	h.init()
	issued := make([]int, o.Clients)
	for len(h) > 0 {
		ev := h.pop()
		done := fn(ev.id, ev.next)
		if done < ev.next {
			done = ev.next
		}
		issued[ev.id]++
		res.Requests++
		if ev.next < res.Start {
			res.Start = ev.next
		}
		if done > res.End {
			res.End = done
		}
		if issued[ev.id] > o.Warmup {
			res.Latency.Record(done - ev.next)
		}
		if issued[ev.id] < o.PerCli {
			h.push(clientEvent{next: ev.next + o.Interval, id: ev.id})
		}
	}
	res.Throughput = throughput(res.Requests, res.Start, res.End)
	return res
}

// SetParallel is a no-op, kept so existing callers of the retired
// intra-simulation worker bound still build. Every simulation runs
// sequentially on the goroutine that calls it; parallelism is across
// sweep points only (runner.SetDefault).
func SetParallel(int) {}
