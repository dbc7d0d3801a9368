package experiments

import (
	"encoding/binary"

	"rambda/internal/core"
	"rambda/internal/hostcpu"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Fig7Row is one bar of Fig. 7: microbenchmark throughput of one
// configuration. The table also normalizes it within its memory type
// (fig7Normalized).
type Fig7Row struct {
	Mem        string // "dram" | "nvm"
	Config     string
	Throughput float64 // requests/sec
}

// Fig7Config scales the experiment (the paper uses a 10M-node list and
// 1M requests; defaults here are scaled for simulation turnaround —
// see DESIGN.md on scaling).
type Fig7Config struct {
	Nodes    int
	Requests int // per configuration
	Window   int // outstanding requests per connection
	Seed     uint64
}

// DefaultFig7Config returns the scaled experiment size.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Nodes: 1 << 20, Requests: 60000, Window: 16, Seed: 7}
}

// linkedList is the microbenchmark data structure: a permuted cycle of
// 64 B nodes ([8B next index][8B value][48B padding]).
type linkedList struct {
	region *memspace.Region
	nodes  int
}

const nodeBytes = 64

// buildLinkedList builds a list in an address space of its own. A point
// maps it into its machine (memspace.Space.Adopt) as the machine's first
// allocation, where a list built in the machine's space would have been
// placed.
func buildLinkedList(nodes int, rng *sim.RNG) *linkedList {
	region := memspace.New().Alloc("microbench-list", uint64(nodes*nodeBytes), memspace.KindDRAM)
	perm := rng.Perm(nodes)
	buf := region.Bytes()
	for i := 0; i < nodes; i++ {
		binary.LittleEndian.PutUint64(buf[i*nodeBytes:], uint64(perm[i]))
		binary.LittleEndian.PutUint64(buf[i*nodeBytes+8:], uint64(i)*3+1)
	}
	return &linkedList{region: region, nodes: nodes}
}

func (l *linkedList) addr(i int) memspace.Addr {
	return l.region.Base + memspace.Addr(i%l.nodes*nodeBytes)
}

func (l *linkedList) next(i int) int {
	return int(binary.LittleEndian.Uint64(l.region.Slice(l.addr(i), 8)))
}

func (l *linkedList) value(i int) uint64 {
	return binary.LittleEndian.Uint64(l.region.Slice(l.addr(i)+8, 8))
}

// cpuMicrobenchCycles is the per-request instruction path of the CPU
// implementation (request parse, pointer chase bookkeeping, response),
// calibrated so a single Skylake core lands near the paper's
// single-core baseline.
const cpuMicrobenchCycles = 600

// walkerApp is the RAMBDA APU for the microbenchmark: three dependent
// coherent reads plus a little ALU work (paper: "randomly pick a node
// ... traverse the two succeeding nodes, and return the value in the
// second node"). Its 8-byte response buffer is reused by every
// request: the server copies a response out before the next one.
func walkerApp(list *linkedList) core.App {
	resp := make([]byte, 8)
	return core.AppFunc(func(ctx *core.AppCtx, now sim.Time, req []byte) ([]byte, sim.Time) {
		idx := int(binary.LittleEndian.Uint64(req))
		t := now
		cur := idx % list.nodes
		var val uint64
		for hop := 0; hop < 3; hop++ {
			t = ctx.Read(t, list.addr(cur), nodeBytes)
			val = list.value(cur)
			cur = list.next(cur)
		}
		t = ctx.Compute(t, 12)
		binary.LittleEndian.PutUint64(resp, val)
		return resp, t
	})
}

// walkFunc serves one list walk starting at node for closed-loop client
// id, issued at issue, and returns its completion time.
type walkFunc func(id int, issue sim.Time, node int) sim.Time

// walkServer serves list walks on m with the prototype accelerator, fed
// intra-machine like the paper's microbenchmark: 16 connections of 64 B
// entries, each with a local client, and opts for the rest.
func walkServer(m *core.Machine, list *linkedList, opts core.ServerOptions) walkFunc {
	opts.Connections = 16
	opts.EntryBytes = 64
	s := core.NewServer(m, walkerApp(list), opts)
	clients := make([]*core.LocalClient, opts.Connections)
	for i := range clients {
		clients[i] = core.ConnectLocalClient(s, i)
	}
	req := make([]byte, 8)
	return func(id int, issue sim.Time, node int) sim.Time {
		binary.LittleEndian.PutUint64(req, uint64(node))
		_, done := clients[id%len(clients)].Call(issue, req)
		return done
	}
}

// fig7Point is one Fig. 7 configuration: CPU cores (variant NoAccel)
// or a RAMBDA variant with its notification mode, and whether the list
// (and a served point's rings) lives in NVM.
type fig7Point struct {
	cores   int
	variant core.AccelVariant
	notify  core.NotifyMode
	nvm     bool
	ddio    bool // DDIO always on instead of adaptive
}

// build maps list into a fresh machine and returns how many closed-loop
// clients drive it, the seed offset of their request stream and how one
// walk is served.
func (p fig7Point) build(cfg Fig7Config, list *linkedList) (clients int, seed uint64, walk walkFunc) {
	m := core.NewMachine(core.MachineConfig{
		Name: "srv", Cores: p.cores, Variant: p.variant, WithNVM: p.nvm, DDIOEnabled: p.ddio,
	})
	kind := m.DataKind()
	if p.nvm {
		kind = memspace.KindNVM
	}
	m.Space.Adopt(list.region, kind)
	switch p.variant {
	case core.NoAccel:
		// k cores fed from the other NUMA node via shared memory, batch
		// size 16 (the paper's throughput-optimal setting).
		const batch = 16
		return p.cores * batch, 1, func(_ int, issue sim.Time, node int) sim.Time {
			return m.CPU.Process(issue, hostcpu.Work{
				Cycles:      cpuMicrobenchCycles,
				Accesses:    3,
				AccessBytes: nodeBytes,
				Addr:        list.addr(node),
				Batch:       batch,
			})
		}
	case core.AccelBase:
		// The prototype behind request rings. On NVM the rings double
		// as the persistence log, as in RAMBDA-TX, and pipeline deeper
		// so NVM, not latency, binds.
		opts := core.DefaultServerOptions()
		opts.Notify = p.notify
		window, seed := cfg.Window, uint64(2)
		if p.nvm {
			window, seed, opts.RingKind = cfg.Window*4, 4, memspace.KindNVM
		}
		opts.RingEntries = window * 2
		return 16 * window, seed, walkServer(m, list, opts)
	}
	// RAMBDA-LD/LH: the list in accelerator-local memory and requests
	// generated inside the FPGA (the paper's U280 emulation
	// methodology, Sec. V).
	app := walkerApp(list)
	ctx := &core.AppCtx{M: m, A: m.Accel}
	req := make([]byte, 8)
	return 16 * cfg.Window, 3, func(_ int, issue sim.Time, node int) sim.Time {
		binary.LittleEndian.PutUint64(req, uint64(node))
		// In-FPGA request generation: a couple of fabric cycles.
		t := m.Accel.Compute(issue, 2)
		_, done := app.Handle(ctx, t, req)
		return done
	}
}

// simulate drives the point's closed loop over list and returns its
// throughput.
func (p fig7Point) simulate(cfg Fig7Config, list *linkedList) float64 {
	clients, seed, walk := p.build(cfg, list)
	perClient := max(cfg.Requests/clients, 1)
	wrng := sim.NewRNG(cfg.Seed + seed)
	res := sim.ClosedLoop{Clients: clients, PerClient: perClient, Warmup: 2}.Run(
		func(id int, issue sim.Time) sim.Time { return walk(id, issue, wrng.Intn(cfg.Nodes)) })
	return res.Throughput
}

// fig7Bases names the configuration each memory type normalizes to, as
// in the paper: DRAM results to 1-core CPU, NVM results to RAMBDA-DDIO.
var fig7Bases = map[string]string{"dram": "CPU-1", "nvm": "RAMBDA-DDIO"}

// fig7Normalized is row i's throughput relative to its memory type's
// base row.
func fig7Normalized(rows []Fig7Row, i int) float64 {
	var base float64
	for _, r := range rows {
		if r.Mem == rows[i].Mem && r.Config == fig7Bases[r.Mem] {
			base = r.Throughput
		}
	}
	return rows[i].Throughput / base
}

// fig7Plan enumerates the sweep: eleven configurations sharing one
// list. Normalization reads the filled rows, so the points stay
// order-independent.
func fig7Plan(cfg Fig7Config) ([]Fig7Row, sweep[fig7Point, float64]) {
	base, ld, lh := core.AccelBase, core.AccelLD, core.AccelLH
	configs := []struct {
		mem, name string
		p         fig7Point
	}{
		{"dram", "CPU-1", fig7Point{cores: 1}},
		{"dram", "CPU-8", fig7Point{cores: 8}},
		{"dram", "CPU-16", fig7Point{cores: 16}},
		{"dram", "RAMBDA-polling", fig7Point{variant: base, notify: core.NotifyPolling}},
		{"dram", "RAMBDA", fig7Point{variant: base}},
		{"dram", "RAMBDA-LD", fig7Point{variant: ld}},
		{"dram", "RAMBDA-LH", fig7Point{variant: lh}},
		{"nvm", "CPU-1", fig7Point{cores: 1, nvm: true}},
		{"nvm", "CPU-8", fig7Point{cores: 8, nvm: true}},
		{"nvm", "RAMBDA-DDIO", fig7Point{variant: base, nvm: true, ddio: true}},
		{"nvm", "RAMBDA", fig7Point{variant: base, nvm: true}},
	}
	lists := newSharedInputs("linked list", func(nodes int) *linkedList {
		return buildLinkedList(nodes, sim.NewRNG(cfg.Seed))
	})
	rows := make([]Fig7Row, len(configs))
	sw := sweep[fig7Point, float64]{table: Table{
		ID:      "fig7",
		Title:   "Microbenchmark throughput (10M-node list walk, scaled)",
		Columns: []string{"mem", "config", "throughput", "normalized"},
		Notes: []string{
			"paper: CPU scales ~linearly; RAMBDA-polling ~= 8 cores; cpoll +~21.6%;",
			"LD/LH +114%~166% over cpoll; NVM: adaptive DDIO ~+20% over DDIO-on",
		},
	}}
	for i, c := range configs {
		rows[i] = Fig7Row{Mem: c.mem, Config: c.name}
		sw.points = append(sw.points, c.p)
		lists.plan(cfg.Nodes)
	}
	sw.measure = func(p fig7Point) float64 { return p.simulate(cfg, lists.ask(cfg.Nodes)) }
	sw.label = func(i int) string { return rows[i].Mem + "/" + rows[i].Config }
	sw.fill = func(i int, tput float64) { rows[i].Throughput = tput }
	sw.cells = func(i int) []string {
		return []string{rows[i].Mem, rows[i].Config, mops(rows[i].Throughput), f2(fig7Normalized(rows, i))}
	}
	return rows, sw
}

// Fig7 runs the whole microbenchmark sweep.
func Fig7(cfg Fig7Config) []Fig7Row { return runAlone(fig7Plan(cfg)) }

// Fig7Spec exposes the sweep for a shared pool.
func Fig7Spec(cfg Fig7Config) Spec {
	_, sw := fig7Plan(cfg)
	return sw.spec()
}
