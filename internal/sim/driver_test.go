package sim

import (
	"testing"
)

func TestClosedLoopSingleClientSerial(t *testing.T) {
	// One client, fixed 10us service: throughput = 100k/s, latency 10us.
	res := ClosedLoop{Clients: 1, PerClient: 100}.Run(func(_ int, issue Time) Time {
		return issue + 10*Microsecond
	})
	if res.Requests != 100 {
		t.Fatalf("requests=%d", res.Requests)
	}
	if res.Latency.Mean() != 10*Microsecond {
		t.Fatalf("mean=%v", res.Latency.Mean())
	}
	if got := res.Throughput; got < 99000 || got > 101000 {
		t.Fatalf("throughput=%v, want ~100k", got)
	}
}

func TestClosedLoopScalesWithClients(t *testing.T) {
	// A resource with capacity 4 and 10us service: 1 client gets 100k/s,
	// 4+ clients saturate at 400k/s.
	run := func(clients int) float64 {
		r := NewResource("srv", 4, 10*Microsecond, 0, 0)
		res := ClosedLoop{Clients: clients, PerClient: 200}.Run(
			func(_ int, issue Time) Time {
				_, done := r.Acquire(issue, 0)
				return done
			})
		return res.Throughput
	}
	t1, t4, t8 := run(1), run(4), run(8)
	if t4 < 3.8*t1 {
		t.Fatalf("4 clients = %.0f, want ~4x of %.0f", t4, t1)
	}
	if t8 > 1.1*t4 {
		t.Fatalf("8 clients = %.0f should saturate near 4-client %.0f", t8, t4)
	}
}

func TestClosedLoopThinkTime(t *testing.T) {
	res := ClosedLoop{Clients: 1, PerClient: 10, Think: 90 * Microsecond}.Run(
		func(_ int, issue Time) Time { return issue + 10*Microsecond })
	// Period per request = 100us except no think after the last one.
	wantEnd := Time(9*100+10) * Microsecond
	if res.End != wantEnd {
		t.Fatalf("end=%v, want %v", res.End, wantEnd)
	}
}

func TestClosedLoopWarmupExcluded(t *testing.T) {
	res := ClosedLoop{Clients: 2, PerClient: 10, Warmup: 5}.Run(
		func(_ int, issue Time) Time { return issue + Microsecond })
	if res.Latency.Count() != 10 { // (10-5) per client x 2
		t.Fatalf("recorded=%d, want 10", res.Latency.Count())
	}
	if res.Requests != 20 {
		t.Fatalf("requests=%d, want 20", res.Requests)
	}
}

// TestClosedLoopCallsEachClientPerClientTimes pins the request count
// the figures size their generators by: with the figure path's warmup,
// stagger and jitter, fn runs exactly PerClient times per client,
// warmup requests included, and Clients × PerClient times in all.
func TestClosedLoopCallsEachClientPerClientTimes(t *testing.T) {
	const clients, perClient = 7, 13
	calls := make([]int, clients)
	total := 0
	res := ClosedLoop{Clients: clients, PerClient: perClient, Warmup: 2,
		Stagger: 40 * Nanosecond, Jitter: 400 * Nanosecond, JitterSeed: 8}.Run(
		func(id int, issue Time) Time {
			calls[id]++
			total++
			return issue + Microsecond
		})
	for id, n := range calls {
		if n != perClient {
			t.Fatalf("client %d: fn called %d times, want %d", id, n, perClient)
		}
	}
	if total != clients*perClient || res.Requests != int64(total) {
		t.Fatalf("fn called %d times, Requests=%d, want %d", total, res.Requests, clients*perClient)
	}
}

func TestClosedLoopDeterminism(t *testing.T) {
	run := func() (float64, Time) {
		r := NewResource("x", 2, 3*Microsecond, 0, 0)
		res := ClosedLoop{Clients: 5, PerClient: 50}.Run(
			func(_ int, issue Time) Time {
				_, done := r.Acquire(issue, 0)
				return done
			})
		return res.Throughput, res.Latency.P99()
	}
	tp1, p1 := run()
	tp2, p2 := run()
	if tp1 != tp2 || p1 != p2 {
		t.Fatal("closed loop must be deterministic")
	}
}

func TestClosedLoopEmpty(t *testing.T) {
	res := ClosedLoop{}.Run(func(_ int, issue Time) Time { return issue })
	if res.Requests != 0 {
		t.Fatal("zero-config run should do nothing")
	}
}

func TestOpenLoopFixedRate(t *testing.T) {
	// One source at 1us interval; service 10us: arrivals do not wait for
	// completions, so queueing builds at the resource.
	r := NewResource("srv", 1, 10*Microsecond, 0, 0)
	res := OpenLoop{Clients: 1, PerCli: 100, Interval: Microsecond}.Run(
		func(_ int, issue Time) Time {
			_, done := r.Acquire(issue, 0)
			return done
		})
	// Last arrival at 99us; all 100 services take 1000us.
	if res.End != 1000*Microsecond {
		t.Fatalf("end=%v, want 1000us", res.End)
	}
	// Latency must grow over time: p99 >> mean of earliest requests.
	if res.Latency.Max() <= res.Latency.Min() {
		t.Fatal("open loop overload should grow queueing latency")
	}
}

func TestOpenLoopWarmupExcluded(t *testing.T) {
	// Mirror of TestClosedLoopWarmupExcluded: the first Warmup requests
	// per client carry cold-start latency and must not pollute the
	// distribution, while Requests still counts them.
	cold := 0
	res := OpenLoop{Clients: 2, PerCli: 10, Interval: Microsecond, Warmup: 3}.Run(
		func(_ int, issue Time) Time {
			cold++
			if cold <= 6 { // both clients' first 3 requests
				return issue + 100*Microsecond
			}
			return issue + Microsecond
		})
	if res.Latency.Count() != 14 { // (10-3) per client x 2
		t.Fatalf("recorded=%d, want 14", res.Latency.Count())
	}
	if res.Requests != 20 {
		t.Fatalf("requests=%d, want 20", res.Requests)
	}
	if res.Latency.Max() != Microsecond {
		t.Fatalf("max=%v, cold-start samples leaked past warmup", res.Latency.Max())
	}
}

func TestOpenLoopWarmupDefaultUnchanged(t *testing.T) {
	// Zero value keeps the pre-Warmup behaviour: every sample recorded.
	res := OpenLoop{Clients: 1, PerCli: 5, Interval: Microsecond}.Run(
		func(_ int, issue Time) Time { return issue + Microsecond })
	if res.Latency.Count() != 5 {
		t.Fatalf("recorded=%d, want 5", res.Latency.Count())
	}
}

func TestOpenLoopCompletionClamped(t *testing.T) {
	res := OpenLoop{Clients: 1, PerCli: 3, Interval: Microsecond}.Run(
		func(_ int, issue Time) Time { return issue - Microsecond }) // buggy fn
	if res.Latency.Min() < 0 {
		t.Fatal("negative latency must be clamped")
	}
	_ = res
}
