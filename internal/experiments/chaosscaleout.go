package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/chainrep"
	"rambda/internal/fault"
	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/scaleout"
	"rambda/internal/sim"
)

// The chaos-scaleout experiment is the cluster-level availability gate:
// the sharded KVS of the scaleout sweep run under a seeded crash storm
// — replica crash windows land on random shards while hot-key
// migrations, an elastic AddShard, and a RemoveShard drain are all in
// flight. Each point reports goodput (requests that were actually
// served), tail latency, and the availability layer's work: failovers,
// rejoins, aborted migrations, elastic range chunks, and requests that
// exhausted their retry budget. The closed-loop rows self-throttle
// under faults (goodput dips, the tail stays bounded); the open-loop
// rows keep arriving at the configured rate, so the same crash windows
// pile timeout-and-backoff latency onto far more requests — the
// queueing behaviour a closed loop structurally hides. After every run
// the cluster must converge: all replicas rejoined and every live
// shard's chain byte-identical ("state" column).

// ChaosScaleoutConfig sizes the crash-rate x shards x arrival sweep.
type ChaosScaleoutConfig struct {
	// Shards, CrashPerK and Arrivals span the grid. CrashPerK is the
	// number of replica crash windows scheduled per 1000 requests
	// (0 = fault-free control); Arrivals selects closed- and/or
	// open-loop rows.
	Shards    []int
	CrashPerK []int
	Arrivals  []string

	// Workload shape, matching the scaleout sweep.
	Keys       int
	ValueBytes int
	Requests   int
	PutPercent int
	Frontends  int
	Theta      float64

	// OpenLoopInterval is the per-frontend inter-arrival time of the
	// open-loop rows. CrashDur is each crash window's length. Every
	// point adds a mid-run AddShard at Requests/3 and a RemoveShard(0)
	// drain at 2*Requests/3, so the crash storm races the reshape too.
	OpenLoopInterval sim.Duration
	CrashDur         sim.Duration

	Seed uint64
}

// DefaultChaosScaleoutConfig returns the full-size sweep.
func DefaultChaosScaleoutConfig() ChaosScaleoutConfig {
	return ChaosScaleoutConfig{
		Shards:    []int{4, 8},
		CrashPerK: []int{0, 4},
		Arrivals:  []string{"closed", "open"},

		Keys:       1 << 14,
		ValueBytes: 46,
		Requests:   16000,
		PutPercent: 20,
		Frontends:  8,
		Theta:      0.99,

		OpenLoopInterval: 2 * sim.Microsecond,
		CrashDur:         200 * sim.Microsecond,
		Seed:             31,
	}
}

// ChaosScaleoutRow is one (shards, crash rate, arrival) point.
type ChaosScaleoutRow struct {
	Shards    int
	CrashPerK int
	Arrival   string
	Goodput   float64 // served requests/sec of virtual time
	P99       sim.Time
	Failovers int64
	Rejoins   int64
	Aborted   int64
	RangeMigs int64
	Failed    int64
	Resizes   int64
	StateOK   bool
}

// chaosScaleoutPoint runs one grid point: preload, schedule the crash
// storm over the run's nominal horizon, drive the workload (closed or
// open loop) with the elastic reshape racing it, then converge and
// check replica agreement.
func chaosScaleoutPoint(cfg ChaosScaleoutConfig, shards, crashPerK int, arrival string,
	point int, reg *obs.Registry) ChaosScaleoutRow {
	seed := runner.Seed("chaos-scaleout", point)
	ccfg := scaleoutCluster(cfg.Keys, cfg.Requests, shards, seed)
	c := scaleout.New(ccfg)
	c.RegisterMetrics(reg, "scaleout")
	c.RegisterFaultMetrics(reg, "scaleout")
	reg.SetInterval(scaleoutMetricsInterval)

	key, val, t0 := preloadCluster(c, cfg.Keys, cfg.ValueBytes)

	perCli := cfg.Requests / cfg.Frontends
	executed := cfg.Requests
	var horizon sim.Time
	if arrival == "open" {
		executed = perCli * cfg.Frontends
		horizon = sim.Time(cfg.OpenLoopInterval) * sim.Time(perCli)
	} else {
		// The closed loop's span depends on per-request latency; ~8us
		// is the fault-free testbed figure. Windows scheduled past the
		// actual end simply never open — the storm's density is what
		// matters, not its exact tail.
		horizon = sim.Time(cfg.Requests) * sim.Time(8*sim.Microsecond)
	}

	// The crash storm is laid out before traffic starts, from its own
	// subseed: node and start time are uniform over the pool and the
	// horizon. The elastic-added shard (id == shards) is in the pool,
	// so crashes race the reshape's installs too.
	if crashPerK > 0 {
		frng := sim.NewRNG(runner.SubSeed(seed, 2))
		n := cfg.Requests * crashPerK / 1000
		wins := make([]fault.Window, 0, n)
		for i := 0; i < n; i++ {
			node := fmt.Sprintf("s%dr%d", frng.Intn(shards+1), frng.Intn(ccfg.Replicas))
			from := t0 + sim.Time(frng.Uint64n(uint64(horizon)))
			wins = append(wins, fault.Window{
				Node: node, Kind: fault.Crash, From: from, To: from + sim.Time(cfg.CrashDur),
			})
		}
		c.EnableFaults(fault.New(fault.Plan{Seed: seed, Nodes: wins}))
	} else {
		// Fault-free rows still reshape; the nil injector keeps every
		// request on the fast path.
		c.EnableFaults(fault.New(fault.Plan{}))
	}

	wrng := sim.NewRNG(runner.SubSeed(seed, 1))
	var zipf *sim.Zipf
	if cfg.Theta > 0 {
		zipf = sim.NewZipf(wrng, uint64(cfg.Keys), cfg.Theta)
	}
	fes := make([]*scaleout.Frontend, cfg.Frontends)
	for i := range fes {
		fes[i] = c.NewFrontend()
	}

	addAt, rmAt := cfg.Requests/3, 2*cfg.Requests/3
	var added, removed bool
	reqIdx := 0
	body := func(fe *scaleout.Frontend, issue sim.Time) sim.Time {
		i := reqIdx
		reqIdx++
		var k int
		if zipf != nil {
			k = int(zipf.Next())
		} else {
			k = wrng.Intn(cfg.Keys)
		}
		key = appendKVSKey(key[:0], k)
		var done sim.Time
		if wrng.Intn(100) < cfg.PutPercent {
			binary.LittleEndian.PutUint64(val, uint64(i))
			done, _ = fe.TryPut(issue, key, val)
		} else {
			_, done, _ = fe.TryGet(issue, key)
		}
		// The reshape rides the request loop: the grow and the drain
		// are asked for once their trigger index passes, and re-asked
		// until the previous resize's chunk sequence has drained.
		if !added && i >= addAt {
			if _, err := c.AddShard(done); err == nil {
				added = true
			}
		} else if added && !removed && i >= rmAt {
			if err := c.RemoveShard(done, 0); err == nil {
				removed = true
			}
		}
		return done
	}

	var end sim.Time
	if arrival == "open" {
		drv := sim.OpenLoop{Clients: cfg.Frontends, PerCli: perCli, Interval: cfg.OpenLoopInterval}
		res := drv.Run(func(cli int, issue sim.Time) sim.Time {
			return body(fes[cli], t0+issue) - t0
		})
		end = t0 + res.End
	} else {
		now := t0
		for i := 0; i < cfg.Requests; i++ {
			now = body(fes[i%len(fes)], now)
		}
		end = now
	}

	// Converge: heal every chain, finish the reshape (issuing the drain
	// here if the run ended before it was accepted), heal again.
	end = c.RejoinAll(end)
	if !removed {
		end = c.DrainResize(end)
		if err := c.RemoveShard(end, 0); err == nil {
			removed = true
		}
	}
	end = c.DrainResize(end)
	end = c.RejoinAll(end)
	reg.SnapshotNow(end)

	stateOK := true
	nb := ccfg.SlotsPerShard * ccfg.SlotBytes
	for i := 0; i < c.Shards(); i++ {
		if c.Retired(i) {
			continue
		}
		ch := c.Chain(i)
		for j := 1; j < len(ch.Nodes); j++ {
			if !chainrep.StateEqual(ch.Nodes[0].Store, ch.Nodes[j].Store, nb) {
				stateOK = false
			}
		}
	}

	st := c.Stats()
	hist := c.MergedLatency()
	good := int64(executed) - st.Failed
	goodput := 0.0
	if end > t0 {
		goodput = float64(good) / (float64(end-t0) / float64(sim.Second))
	}
	return ChaosScaleoutRow{
		Shards:    shards,
		CrashPerK: crashPerK,
		Arrival:   arrival,
		Goodput:   goodput,
		P99:       hist.P99(),
		Failovers: st.Failovers,
		Rejoins:   st.Rejoins,
		Aborted:   st.Aborted,
		RangeMigs: st.RangeMigrations,
		Failed:    st.Failed,
		Resizes:   st.Resizes,
		StateOK:   stateOK,
	}
}

func chaosScaleoutRender(cfg ChaosScaleoutConfig, rows []ChaosScaleoutRow) *Table {
	t := &Table{
		ID:    "chaos-scaleout",
		Title: "Sharded cluster under crash storms: failover, elastic resharding, retry budgets",
		Columns: []string{"shards", "crash/kreq", "arrival", "goodput", "p99",
			"failovers", "rejoins", "aborted-migr", "range-migr", "failed", "state"},
		Notes: []string{
			fmt.Sprintf("crash/kreq: %v-long replica crash windows per 1000 requests; goodput excludes retry-exhausted requests", sim.Duration(cfg.CrashDur)),
			"closed rows self-throttle (one outstanding request); open rows keep arriving, so the same windows tax far more requests",
			"every row ends converged: replicas rejoined, reshape finished, chains byte-equal (state ok)",
		},
	}
	for _, r := range rows {
		state := "ok"
		if !r.StateOK {
			state = "FAIL"
		}
		t.AddRow(
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.CrashPerK),
			r.Arrival,
			fmt.Sprintf("%.1f Kops", r.Goodput/1e3),
			usStr(r.P99),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Rejoins),
			fmt.Sprintf("%d", r.Aborted),
			fmt.Sprintf("%d", r.RangeMigs),
			fmt.Sprintf("%d", r.Failed),
			state,
		)
	}
	return t
}

// ChaosScaleoutSpec enumerates the grid as runner jobs, slot-indexed so
// the rendered table and the metrics export — the scaleout gauges plus
// the fault-layer counters of every point — are identical for every
// worker count.
func ChaosScaleoutSpec(cfg ChaosScaleoutConfig) Spec {
	type point struct {
		shards, crash int
		arrival       string
	}
	var points []point
	for _, s := range cfg.Shards {
		for _, cr := range cfg.CrashPerK {
			for _, ar := range cfg.Arrivals {
				points = append(points, point{s, cr, ar})
			}
		}
	}
	rows := make([]ChaosScaleoutRow, len(points))
	regs := make([]*obs.Registry, len(points))
	label := func(i int) string {
		return fmt.Sprintf("shards=%d/crash=%d/%s", points[i].shards, points[i].crash, points[i].arrival)
	}
	jobs := runner.Jobs("chaos-scaleout", len(points), label, func(i int) {
		regs[i] = obs.NewRegistry()
		rows[i] = chaosScaleoutPoint(cfg, points[i].shards, points[i].crash, points[i].arrival, i, regs[i])
		regs[i].Freeze() // keep the values, not the cluster, until export
	})
	return Spec{
		ID:    "chaos-scaleout",
		Jobs:  jobs,
		Table: func() *Table { return chaosScaleoutRender(cfg, rows) },
		Obs: func() ([]obs.TraceJSON, []obs.MetricsJSON) {
			return nil, namedMetrics(label, regs)
		},
	}
}
