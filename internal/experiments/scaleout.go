package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/scaleout"
	"rambda/internal/sim"
)

// The scaleout experiment is not a paper figure: it takes the chainrep
// building block multi-machine, the way Sec. VII sketches RAMBDA pods
// composing into a cluster. A consistent-hash ring partitions the key
// space across N shard chains, clients route through possibly-stale
// shard maps, and per-shard hot-key sketches drive live migrations
// (snapshot copy + catch-up log + atomic map flip) when the Zipf skew
// concentrates load. The sweep reports goodput and tail latency per
// (shards x skew) point alongside the migration counters and the
// per-window load-imbalance ratio before and after rebalancing.

// ScaleoutConfig sizes the sharded-cluster sweep.
type ScaleoutConfig struct {
	// Shards and Thetas span the sweep grid; theta 0 is the uniform
	// distribution, larger is more skewed (YCSB Zipf, item 0 hottest).
	Shards []int
	Thetas []float64
	// Keys is the preloaded key universe; ValueBytes the payload per
	// pair; Requests the measured request count per point; PutPercent
	// the write share of the mix; Frontends the number of client-side
	// routers cycling through the workload.
	Keys       int
	ValueBytes int
	Requests   int
	PutPercent int
	Frontends  int
	Seed       uint64
}

// DefaultScaleoutConfig returns the full-size sweep.
func DefaultScaleoutConfig() ScaleoutConfig {
	return ScaleoutConfig{
		Shards:     []int{2, 4, 8},
		Thetas:     []float64{0, 0.90, 0.99},
		Keys:       1 << 16,
		ValueBytes: 46,
		Requests:   24000,
		PutPercent: 10,
		Frontends:  8,
		Seed:       29,
	}
}

// scaleoutMetricsInterval is the virtual-time ticker period for
// registry samples.
const scaleoutMetricsInterval = 5 * sim.Millisecond

// ScaleoutRow is one (shards, skew) point of the sweep.
type ScaleoutRow struct {
	Shards       int
	Theta        float64
	Goodput      float64 // successful requests/sec of virtual time
	Avg, P99     sim.Time
	Migrations   int64
	MovedKeys    int64
	StaleRetries int64
	ImbFirst     float64 // max/mean shard load, first detection window
	ImbLast      float64 // max/mean shard load, final detection window
}

// scaleoutDist renders a theta as a distribution label.
func scaleoutDist(theta float64) string {
	if theta == 0 {
		return "uniform"
	}
	return fmt.Sprintf("zipf%.2f", theta)
}

// scaleoutCluster maps a scaleout or chaos-scaleout point onto a
// cluster config: the chainrep testbed parameters, stores sized for the
// point's share of the key universe (double headroom for ring imbalance
// plus migrated hot keys), and a detection policy of ~12 windows per
// run.
func scaleoutCluster(keys, requests, shards int, seed uint64) scaleout.Config {
	ccfg := scaleout.DefaultConfig()
	ccfg.Shards = shards
	ccfg.Seed = seed
	ccfg.SlotsPerShard = 2*keys/shards + 1024
	ccfg.RebalanceEvery = requests / 12
	ccfg.ImbalanceThreshold = 1.15
	ccfg.HotKeysPerMove = 8
	ccfg.MaxMigrations = 16
	return ccfg
}

// preloadCluster writes the key universe 0..keys-1 (value = the key's
// index) through the cluster's preload path and returns the key and
// value buffers for the workload to reuse, plus the time the preload
// finished.
func preloadCluster(c *scaleout.Cluster, keys, valueBytes int) (key, val []byte, t0 sim.Time) {
	key = appendKVSKey(nil, 0)
	val = make([]byte, valueBytes)
	for i := 0; i < keys; i++ {
		binary.LittleEndian.PutUint64(val, uint64(i))
		t0 = c.Preload(t0, key, val)
		nextKVSKey(key)
	}
	return key, val, t0
}

// scaleoutPoint preloads one cluster and drives the skewed closed-loop
// workload through rotating frontends. The cluster's gauges are sampled
// into reg on the virtual-time ticker, so the export shows the
// imbalance dropping as migrations land.
func scaleoutPoint(cfg ScaleoutConfig, shards int, theta float64, point int,
	reg *obs.Registry) ScaleoutRow {
	seed := runner.Seed("scaleout", point)
	c := scaleout.New(scaleoutCluster(cfg.Keys, cfg.Requests, shards, seed))
	c.RegisterMetrics(reg, "scaleout")
	reg.SetInterval(scaleoutMetricsInterval)

	key, val, t0 := preloadCluster(c, cfg.Keys, cfg.ValueBytes)
	now := t0

	wrng := sim.NewRNG(runner.SubSeed(seed, 1))
	var zipf *sim.Zipf
	if theta > 0 {
		zipf = sim.NewZipf(wrng, uint64(cfg.Keys), theta)
	}
	fes := make([]*scaleout.Frontend, cfg.Frontends)
	for i := range fes {
		fes[i] = c.NewFrontend()
	}
	nextKey := func() int {
		if zipf != nil {
			return int(zipf.Next())
		}
		return wrng.Intn(cfg.Keys)
	}
	for i := 0; i < cfg.Requests; i++ {
		key = appendKVSKey(key[:0], nextKey())
		fe := fes[i%len(fes)]
		if wrng.Intn(100) < cfg.PutPercent {
			binary.LittleEndian.PutUint64(val, uint64(i))
			now = fe.Put(now, key, val)
		} else {
			_, done := fe.Get(now, key)
			now = done
		}
	}
	reg.SnapshotNow(now)

	st := c.Stats()
	hist := c.MergedLatency()
	goodput := 0.0
	if now > t0 {
		goodput = float64(cfg.Requests) / (float64(now-t0) / float64(sim.Second))
	}
	return ScaleoutRow{
		Shards:       shards,
		Theta:        theta,
		Goodput:      goodput,
		Avg:          hist.Mean(),
		P99:          hist.P99(),
		Migrations:   st.Migrations,
		MovedKeys:    st.MovedKeys,
		StaleRetries: st.StaleRetries,
		ImbFirst:     st.FirstImbalance,
		ImbLast:      st.LastImbalance,
	}
}

func scaleoutRender(rows []ScaleoutRow) *Table {
	t := &Table{
		ID:    "scaleout",
		Title: "Sharded scale-out KVS: consistent hashing + hot-key migration",
		Columns: []string{"shards", "dist", "goodput", "avg", "p99",
			"migrations", "moved", "stale-retries", "imb-first", "imb-last"},
		Notes: []string{
			"imbalance = max/mean requests per shard within a detection window; migration triggers above 1.15",
			"stale retries: requests re-routed after a map refresh; each executes exactly once",
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Shards),
			scaleoutDist(r.Theta),
			fmt.Sprintf("%.1f Kops", r.Goodput/1e3),
			usStr(r.Avg),
			usStr(r.P99),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%d", r.MovedKeys),
			fmt.Sprintf("%d", r.StaleRetries),
			f2(r.ImbFirst),
			f2(r.ImbLast),
		)
	}
	return t
}

// ScaleoutSpec enumerates the (shards x theta) grid as runner jobs.
// Registries are slot-indexed like the rows, so the table and the
// metrics export are identical for every worker count.
func ScaleoutSpec(cfg ScaleoutConfig) Spec {
	type point struct {
		shards int
		theta  float64
	}
	var points []point
	for _, s := range cfg.Shards {
		for _, th := range cfg.Thetas {
			points = append(points, point{s, th})
		}
	}
	rows := make([]ScaleoutRow, len(points))
	regs := make([]*obs.Registry, len(points))
	label := func(i int) string {
		return fmt.Sprintf("shards=%d/%s", points[i].shards, scaleoutDist(points[i].theta))
	}
	jobs := runner.Jobs("scaleout", len(points), label, func(i int) {
		regs[i] = obs.NewRegistry()
		rows[i] = scaleoutPoint(cfg, points[i].shards, points[i].theta, i, regs[i])
		regs[i].Freeze() // keep the values, not the cluster, until export
	})
	return Spec{
		ID:    "scaleout",
		Jobs:  jobs,
		Table: func() *Table { return scaleoutRender(rows) },
		Obs: func() ([]obs.TraceJSON, []obs.MetricsJSON) {
			return nil, namedMetrics(label, regs)
		},
	}
}
