// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI) on the simulated testbed. Each FigN/TabN
// function builds the full system from internal/core and the
// application packages, drives the paper's workload, and returns both
// structured rows (consumed by tests and benchmarks) and a rendered
// text table (printed by cmd/rambda-figures). Paper-vs-measured
// comparisons live in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"rambda/internal/core"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/runner"
)

// Spec is one figure's parallel execution plan: the sweep enumerated as
// independent runner jobs (each builds its own machines and RNGs and
// writes a result slot indexed by sweep position) plus the rendering
// step that runs after every job has completed. Exposing the jobs
// instead of running them lets cmd/rambda-figures flatten all figures
// into a single pool, so whole figures overlap with each other as well
// as their own points — while the slot discipline keeps the rendered
// output byte-identical to a sequential run.
type Spec struct {
	ID    string
	Jobs  []runner.Job
	Table func() *Table // render; call only after Jobs have all run

	// Obs returns the spans and metrics registries the jobs collected,
	// one entry per sweep point named by its job label; call only after
	// Jobs have all run. Nil for specs that collect nothing, whose
	// machines stay on the collector's nil fast path. WriteObs is the
	// one place that decides where the data lands.
	Obs func() ([]obs.TraceJSON, []obs.MetricsJSON)
}

// WriteObs exports a spec's collected data under dir as
// <id>.trace.json (Chrome trace_event JSON) and <id>.metrics.json
// (metrics registries), writing each file only when the spec collected
// that kind of data. Call only after the spec's jobs have all run. Same
// seed, same files, byte for byte, at every worker count.
func WriteObs(dir string, s Spec) error {
	if s.Obs == nil {
		return nil
	}
	traces, metrics := s.Obs()
	if len(traces) > 0 {
		if err := obs.WriteChromeTraceFile(filepath.Join(dir, s.ID+".trace.json"), traces); err != nil {
			return fmt.Errorf("%s: write trace: %w", s.ID, err)
		}
	}
	if len(metrics) > 0 {
		if err := obs.WriteMetricsFile(filepath.Join(dir, s.ID+".metrics.json"), metrics); err != nil {
			return fmt.Errorf("%s: write metrics: %w", s.ID, err)
		}
	}
	return nil
}

// namedMetrics pairs each sweep slot's registry with its job label, the
// entry name the metrics export carries.
func namedMetrics(label func(int) string, regs []*obs.Registry) []obs.MetricsJSON {
	mj := make([]obs.MetricsJSON, len(regs))
	for i, reg := range regs {
		mj[i] = obs.MetricsJSON{Name: label(i), Registry: reg}
	}
	return mj
}

// sweep is one spec's table of independent points: its header, the
// point each row measures and how to measure one, the row's job label,
// fill (a measurement into its row) and cells (a filled row's text).
// P is the spec's point type and R what measuring a point yields.
type sweep[P, R any] struct {
	table   Table
	points  []P
	measure func(P) R
	label   func(i int) string
	fill    func(i int, r R)
	cells   func(i int) []string
}

// spec turns the sweep into one job per row and one render loop.
// Nothing is built until a job runs.
func (sw sweep[P, R]) spec() Spec {
	jobs := runner.Jobs(sw.table.ID, len(sw.points), sw.label, func(i int) {
		sw.fill(i, sw.measure(sw.points[i]))
	})
	return Spec{ID: sw.table.ID, Jobs: jobs, Table: func() *Table {
		t := sw.table
		for i := range sw.points {
			t.AddRow(sw.cells(i)...)
		}
		return &t
	}}
}

// runAlone runs a sweep's spec and returns its rows.
func runAlone[Row, P, R any](rows []Row, sw sweep[P, R]) []Row {
	runner.MustRun(0, sw.spec().Jobs)
	return rows
}

// sharedInputs builds each read-only input a spec's points share, such
// as Fig. 7's linked list or a Fig. 13 category's model, once: on the
// first ask for its key, in an address space of its own. A point maps
// the input into its machine as that space's first allocation
// (memspace.Space.Adopt) and never writes it, so one build serves every
// ask at any worker count. An input is kept only while one of its key's
// planned asks has yet to be made, so after a spec's last ask it holds
// nothing. If a build panics, every ask for its key panics naming it.
type sharedInputs[K comparable, V any] struct {
	name  string
	build func(K) V

	mu    sync.Mutex
	left  map[K]int // planned asks not yet made
	built map[K]func() V
}

func newSharedInputs[K comparable, V any](name string, build func(K) V) *sharedInputs[K, V] {
	return &sharedInputs[K, V]{name: name, build: build, left: map[K]int{}, built: map[K]func() V{}}
}

// plan counts one ask that a point will make for k.
func (s *sharedInputs[K, V]) plan(k K) { s.left[k]++ }

// ask counts one of k's planned asks and returns k's input, building it
// if this is the first ask. One ask builds and any others wait.
func (s *sharedInputs[K, V]) ask(k K) V {
	s.mu.Lock()
	get, ok := s.built[k]
	if !ok {
		get = sync.OnceValue(func() V {
			defer func() {
				if v := recover(); v != nil {
					panic(fmt.Sprintf("experiments: %s %v: %v", s.name, k, v))
				}
			}()
			return s.build(k)
		})
		s.built[k] = get
	}
	if s.left[k]--; s.left[k] <= 0 {
		delete(s.left, k) // no later ask will want it
		delete(s.built, k)
	}
	s.mu.Unlock()
	return get()
}

// StandardSpecs enumerates every paper figure in print order, at full
// or quick scale — the single source of the sweep configuration shared
// by cmd/rambda-figures, cmd/rambda-bench, and the output-pinning
// tests.
func StandardSpecs(quick bool) []Spec {
	f7 := DefaultFig7Config()
	kvs := DefaultKVSConfig()
	f12 := DefaultFig12Config()
	f13 := DefaultFig13Config()
	chaos := DefaultChaosConfig()
	bd := DefaultBreakdownConfig()
	sc := DefaultScaleoutConfig()
	cso := DefaultChaosScaleoutConfig()
	yc := DefaultYCSBConfig()
	fig1Requests := 20000
	if quick {
		fig1Requests = 4000
		f7.Nodes = 1 << 18
		f7.Requests = 20000
		kvs.Keys = 1 << 18
		kvs.Requests = 15000
		f12.Transactions = 4000
		f13.Queries = 6000
		f13.RowScale = 0.1
		chaos.Writes = 1200
		chaos.Txs = 600
		bd.Requests = 3000
		sc.Keys = 1 << 13
		sc.Requests = 4800
		cso.Keys = 1 << 12
		cso.Requests = 4000
		yc.Keys = 1 << 13
		yc.Requests = 4000
	}
	// The chaos spec stays after the paper figures: figure goldens pin
	// their print order, and non-paper experiments (chaos, breakdown,
	// scaleout) append after them.
	specs := []Spec{Fig1Spec(fig1Requests, 1), Fig5Spec(), Fig7Spec(f7)}
	return append(append(specs, KVSSpecs(kvs)...),
		Fig12Spec(f12),
		Fig13Spec(f13),
		ScalabilitySpec(DefaultScalabilityConfig()),
		ChaosSpec(chaos),
		BreakdownSpec(bd),
		ScaleoutSpec(sc),
		ChaosScaleoutSpec(cso),
		YCSBSpec(yc),
	)
}

// SelectSpecs picks the StandardSpecs named by only, a comma-separated
// list of ids matched case-insensitively, in print order with each spec
// at most once; an empty list selects every spec. An unknown id is an
// error, so a typo never yields an empty run.
func SelectSpecs(quick bool, only string) ([]Spec, error) {
	specs := StandardSpecs(quick)
	if only == "" {
		return specs, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.ToLower(strings.TrimSpace(id))] = true
	}
	var selected []Spec
	for _, s := range specs {
		if want[s.ID] {
			selected = append(selected, s)
			delete(want, s.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s", strings.Join(unknown, ", "))
	}
	return selected, nil
}

// RunSpec executes a figure's jobs on `parallel` workers (<= 0 uses the
// runner default) and renders its table.
func RunSpec(parallel int, s Spec) *Table {
	runner.MustRun(parallel, s.Jobs)
	return s.Table()
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f2, f1 and mops format numbers consistently across experiment tables.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func mops(v float64) string { return fmt.Sprintf("%.2f Mops", v/1e6) }

// newHostMem builds a standalone host memory system at testbed
// parameters (for models that sit outside a full core.Machine, like the
// SmartNIC's host).
func newHostMem(space *memspace.Space) *memdev.System {
	return &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("host:dram", core.DRAMChannels, core.DRAMBW, core.DRAMLatency),
		NVM:   memdev.NewNVM("host:nvm", core.NVMDimms, core.NVMReadBW, core.NVMLatency, core.NVMWriteCost),
		LLC:   memdev.NewLLC("host:llc", core.LLCBW, core.LLCLatency),
	}
}
