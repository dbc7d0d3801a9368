package main

import (
	"encoding/binary"
	"math"
	"time"

	"rambda/internal/core"
	"rambda/internal/dlrm"
	"rambda/internal/interconnect"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// rep is one repetition of a workload on a freshly built system.
type rep struct {
	setup, run time.Duration // process CPU time
	wall       time.Duration // wall time of set-up and run
	requests   int64         // simulated requests (system workloads) or specs (suite)
	failed     int64
	model      model

	// Filled by measure around the workload; a workload that resets
	// the RSS high-water mark itself reports its own peakRSS.
	allocs  uint64
	peakRSS int64
	self    []time.Duration // traced repetitions only
	calls   []int64
	untimed time.Duration
}

// utilNames are the modeled resources whose utilization over the run
// names the bound behind model.mops.
var utilNames = [...]string{"net_rx", "net_tx", "pcie_in", "pcie_out", "upi", "dram", "nvm", "hbm", "accel_issue", "cpu"}

// model holds a repetition's simulated results. The simulator is
// deterministic, so every repetition of one workload and seed must
// produce an identical model; Checksum folds in every response the
// clients received.
type model struct {
	Requests           int64 // simulated requests; 0 for the suite
	Mops, P50us, P99us float64
	Util               [len(utilNames)]float64

	Misses, Flushes, Compactions, Stalls int64
	Regions                              int
	MiB                                  float64
	GathersPerQuery                      float64
	Checksum                             uint64
}

func (m *model) fromResult(res *sim.Result) {
	m.Requests = res.Requests
	m.Mops = res.Throughput / 1e6
	m.P50us = res.Latency.P50().Microseconds()
	m.P99us = res.Latency.P99().Microseconds()
}

// setUtil records each modeled resource's utilization over [0, end] on
// the server machine; rx and tx are the server's network directions.
func (m *model) setUtil(srv *core.Machine, rx, tx *interconnect.NetLink, end sim.Time) {
	res := [len(utilNames)]*sim.Resource{
		rx.Resource(), tx.Resource(),
		srv.PCIeIn.Resource(), srv.PCIeOut.Resource(),
		srv.CCLink.Resource(), srv.Mem.DRAM.Resource(), nil, nil,
		srv.Accel.IssueResource(), srv.CPU.Cores(),
	}
	if srv.Mem.NVM != nil {
		res[6] = srv.Mem.NVM.Resource()
	}
	if srv.Mem.Local != nil {
		res[7] = srv.Mem.Local.Resource()
	}
	for i, r := range res {
		if r != nil {
			m.Util[i] = r.Utilization(end)
		}
	}
	m.Regions = len(srv.Space.Regions())
	m.MiB = float64(srv.Space.TotalAllocated()) / (1 << 20)
}

// setupDone and runDone close the set-up and run phases timed by w.
func (r *rep) setupDone(w *watch) {
	wall, cpu := w.lap()
	r.wall += wall
	r.setup += cpu
}

func (r *rep) runDone(w *watch) {
	wall, cpu := w.lap()
	r.wall += wall
	r.run += cpu
}

// mix folds v into an FNV-1a style running checksum.
func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// --- kvs-peak and lsm-update: the RAMBDA KVS serving path ---

const (
	valueBytes   = 46 // with the 18 B key, the paper's 64 B pairs
	zipfTheta    = 0.99
	kvsAPUCycles = 6 // the experiments' per-request APU cost
	ringBatch    = 32
)

// kvsParams sizes a KVS workload.
type kvsParams struct {
	keys, conns        int
	clients, perClient int
	lsm                bool // lsm.DB on NVM instead of the hash store

	// zeroWrites makes the handler charge writes with zero bytes, as the
	// experiments' KVS handlers do. accel.WriteData stores the bytes it
	// is given, so this erases the item the store just wrote; the tests
	// use it to show that the read-your-writes check catches it.
	zeroWrites bool
}

// The workloads' repetitions are kept to a few seconds of host time: a
// run then takes the median of several, which rides out the bursts of
// slowdown a shared host imposes better than a few long repetitions.

// kvsPeak is Fig. 8's "mixed" point: 320 clients keep the network
// saturated, half the requests are PUTs. The run is sized to take about
// six times the 1 Mi-key preload, so the serving path dominates cpu_s.
var kvsPeak = kvsParams{keys: 1 << 20, conns: 10, clients: 320, perClient: 400}

// lsmUpdate is YCSB-A (50/50 read/update) over the tiered LSM.
var lsmUpdate = kvsParams{keys: 8 << 10, conns: 10, clients: 80, perClient: 500, lsm: true}

// lsmConfig is the ycsb experiment's tree: the WAL is smaller than the
// memtable, so sustained updates wrap it and stall, and L0 holds two
// runs, so compactions cascade.
var lsmConfig = lsm.Config{
	MemtableBytes: 64 << 10,
	L0Runs:        2,
	SSTableBytes:  2 << 20,
	WALBytes:      48 << 10,
	MaxLevels:     4,
}

// appendKey appends key i: "user" and 14 zero-padded digits (18 B).
func appendKey(dst []byte, i int) []byte {
	dst = append(dst, "user"...)
	var digits [14]byte
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

// A value holds its key's index and the sequence number of the request
// that wrote it (0 for the preload), so every GET can be checked
// against the last PUT to its key.
func encodeValue(val []byte, key int, version uint64) {
	binary.LittleEndian.PutUint64(val[0:8], uint64(key))
	binary.LittleEndian.PutUint64(val[8:16], version)
}

type kvsBench struct {
	p          kvsParams
	tr         *tracer
	srv        *core.Machine
	net        *interconnect.Duplex
	clients    []*core.Client
	be         kvs.Backend
	db         *lsm.DB
	storeLayer layer

	sc      kvs.Scratch
	respBuf []byte
}

// buildKVS builds the server and client machines, preloads the store
// (key i holds value i, version 0) and connects the clients.
func buildKVS(p kvsParams, tr *tracer) *kvsBench {
	b := &kvsBench{p: p, tr: tr}
	tr.begin(layerCoreBuild)
	b.srv = core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase, WithNVM: p.lsm})
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	b.net = core.ConnectMachines(b.srv, cm)
	tr.end()

	if p.lsm {
		tr.begin(layerLSMPreload)
		b.db = lsm.Open(b.srv.Space, b.srv.Mem, lsmConfig)
		b.be, b.storeLayer = b.db, layerLSMStore
	} else {
		tr.begin(layerKVSPreload)
		b.be = kvs.New(b.srv.Space, kvs.Config{
			Buckets:   p.keys / 4,
			PoolBytes: uint64(p.keys) * 160,
			Kind:      b.srv.DataKind(),
		})
		b.storeLayer = layerKVSStore
	}
	val := make([]byte, valueBytes)
	var key []byte
	var trace []kvs.Access
	for i := 0; i < p.keys; i++ {
		encodeValue(val, i, 0)
		key = appendKey(key[:0], i)
		var err error
		if trace, err = b.be.PutInto(trace[:0], key, val); err != nil {
			panic("simbench: preload: " + err.Error()) // the store is sized for the preload
		}
	}
	if b.db != nil {
		b.db.Maintain(0) // preload flushes are free; the run starts clean
	}
	tr.end()

	tr.begin(layerCoreBuild)
	opts := core.DefaultServerOptions()
	opts.Connections = p.conns
	opts.RingEntries = ringBatch * 4
	opts.EntryBytes = 128
	opts.ResponseBatch = ringBatch
	s := core.NewServer(b.srv, core.AppFunc(b.handle), opts)
	for i := 0; i < p.conns; i++ {
		b.clients = append(b.clients, core.ConnectClient(cm, s, i))
	}
	tr.end()
	return b
}

// handle is the APU: decode, apply to the store, charge the store's
// accesses through the coherent datapath, and (LSM) drain background
// flush/compaction, stalling on a WAL wrap as the ycsb experiment does.
func (b *kvsBench) handle(ctx *core.AppCtx, now sim.Time, reqBytes []byte) ([]byte, sim.Time) {
	tr := b.tr
	tr.begin(layerKVSCodec)
	req, err := kvs.DecodeRequest(reqBytes)
	if err != nil {
		b.respBuf = kvs.AppendResponse(b.respBuf[:0], kvs.Response{Status: kvs.StatusError})
		tr.end()
		return b.respBuf, now
	}
	tr.next(layerAccelCompute)
	t := ctx.Compute(now, kvsAPUCycles)
	tr.next(b.storeLayer)
	resp, trace := kvs.ApplyScratch(b.be, req, &b.sc)
	tr.next(layerAccelData)
	for _, a := range trace {
		if !a.Write {
			t = ctx.Read(t, a.Addr, a.Bytes)
			continue
		}
		// The write carries the bytes the store already placed there,
		// so charging it leaves the item intact.
		data := b.srv.Space.Slice(a.Addr, a.Bytes)
		if b.p.zeroWrites {
			data = make([]byte, a.Bytes)
		}
		t = ctx.Write(t, a.Addr, data)
	}
	if b.db != nil {
		tr.next(layerLSMMaintain)
		end, stalled := b.db.Maintain(t)
		if stalled {
			t = end
		}
	}
	tr.next(layerKVSCodec)
	b.respBuf = kvs.AppendResponse(b.respBuf[:0], resp)
	tr.end()
	return b.respBuf, t
}

// runKVS builds a fresh KVS system and drives it closed loop: each
// client waits for its reply before issuing the next request, like the
// paper's HERD-style clients. Keys are Zipf(0.99); half the requests
// are PUTs. Every reply is checked: PUTs must succeed, GETs must return
// the value of the last PUT to their key (or the preload).
func runKVS(p kvsParams, seed uint64, tr *tracer) rep {
	// The request stream and the read-your-writes ledger are the
	// benchmark's inputs, built before the clock starts.
	rng := sim.NewRNG(seed)
	zipf := sim.NewZipf(rng, uint64(p.keys), zipfTheta)
	versions := make([]uint64, p.keys)
	key := make([]byte, 0, 18)
	val := make([]byte, valueBytes)
	var reqBuf []byte

	loop := sim.ClosedLoop{
		Clients: p.clients, PerClient: p.perClient, Warmup: 2,
		Stagger: 40 * sim.Nanosecond, Jitter: 400 * sim.Nanosecond, JitterSeed: seed,
	}

	var r rep
	w := startWatch()
	b := buildKVS(p, tr)
	var base lsm.Stats
	if b.db != nil {
		base = b.db.Stats()
	}
	r.setupDone(&w)

	var seq, sum uint64
	tr.begin(layerSimLoop)
	res := loop.Run(func(id int, issue sim.Time) sim.Time {
		tr.request()
		seq++
		k := int(zipf.Next())
		key = appendKey(key[:0], k)
		req := kvs.Request{Op: kvs.OpGet, Key: key}
		if rng.Intn(2) == 0 {
			encodeValue(val, k, seq)
			req = kvs.Request{Op: kvs.OpPut, Key: key, Val: val}
		}
		tr.begin(layerKVSCodec)
		reqBuf = kvs.AppendRequest(reqBuf[:0], req)
		tr.next(layerCoreCall)
		respBytes, done := b.clients[id%len(b.clients)].Call(issue, reqBuf)
		tr.next(layerKVSCodec)
		resp, err := kvs.DecodeResponse(respBytes)
		tr.end()

		ok := err == nil
		switch {
		case !ok:
		case req.Op == kvs.OpPut:
			ok = resp.Status == kvs.StatusOK
			if ok {
				versions[k] = seq
			}
		case resp.Status == kvs.StatusNotFound:
			r.model.Misses++
			ok = false
		default:
			ok = resp.Status == kvs.StatusOK && len(resp.Val) == valueBytes &&
				binary.LittleEndian.Uint64(resp.Val[0:8]) == uint64(k) &&
				binary.LittleEndian.Uint64(resp.Val[8:16]) == versions[k]
			if len(resp.Val) >= 16 {
				sum = mix(sum, binary.LittleEndian.Uint64(resp.Val[8:16]))
			}
		}
		if !ok {
			r.failed++
		}
		sum = mix(sum, uint64(resp.Status))
		return done
	})
	tr.end()
	r.runDone(&w)
	r.requests = res.Requests

	r.model.fromResult(res)
	r.model.setUtil(b.srv, b.net.BtoA, b.net.AtoB, res.End)
	r.model.Checksum = sum
	if b.db != nil {
		st := b.db.Stats()
		r.model.Flushes = st.Flushes - base.Flushes
		r.model.Compactions = st.Compactions - base.Compactions
		r.model.Stalls = st.Stalls - base.Stalls
	}
	return r
}

// --- dlrm-lh: Fig. 13's RAMBDA-LH inference path ---

// dlrmParams sizes the DLRM workload.
type dlrmParams struct {
	rowScale           float64
	dim                int
	clients, perClient int
}

// dlrmLH is the Electronics category at Fig. 13's model shape.
var dlrmLH = dlrmParams{rowScale: 0.25, dim: 64, clients: 64, perClient: 1500}

const (
	waveWidth          = 64  // the DLRM APU's reads per issue wave
	dlrmPreprocCycles  = 500 // CPU-side request preprocessing
	apuCyclesPerVector = 2   // pipelined SIMD reduction
)

// runDLRM builds an LH machine with the embedding table, MERCI memo and
// MLP in HBM, then serves queries closed loop: request over the
// network, preprocessing on the CPU, the gather in 64-wide waves, the
// reduction on the APU, the score back over the network. Every score
// must be a probability and every query must gather something.
func runDLRM(p dlrmParams, seed uint64, tr *tracer) rep {
	cat := dlrm.AmazonCategories[0] // Electronics
	cat.Rows = int(float64(cat.Rows) * p.rowScale)

	var r rep
	w := startWatch()
	tr.begin(layerCoreBuild)
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelLH})
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)
	ctx := &core.AppCtx{M: m, A: m.Accel}
	tr.end()
	tr.begin(layerDLRMBuild)
	ds := dlrm.NewDataset(cat, seed)
	rng := sim.NewRNG(seed + 3)
	table := dlrm.NewTable(m.Space, "emb-"+cat.Name, cat.Rows, p.dim, memspace.KindAccelLocal, rng)
	memo := dlrm.BuildMemo(m.Space, "memo-"+cat.Name, table, ds.Bundles, cat.Rows/4, memspace.KindAccelLocal, rng)
	mdl := dlrm.NewModel(table, memo, dlrm.NewMLP(p.dim, 32, rng), ds.Bundles)
	tr.end()
	r.setupDone(&w)

	var q dlrm.Query
	var sc dlrm.InferScratch
	var gathers int64
	var sum uint64
	addrs := make([]memspace.Addr, 0, waveWidth)
	loop := sim.ClosedLoop{
		Clients: p.clients, PerClient: p.perClient, Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: seed,
	}
	tr.begin(layerSimLoop)
	res := loop.Run(func(_ int, issue sim.Time) sim.Time {
		tr.request()
		tr.begin(layerDLRMQuery)
		ds.NextQueryInto(&q)
		reqBytes := 8 + 4*q.NumItems(cat.BundleSize)
		tr.next(layerDLRMInfer)
		score, _, st := mdl.InferInto(q, dlrm.AggSum, &sc)
		tr.next(layerInterconnectSend)
		t := net.AtoB.Send(issue, reqBytes)
		tr.next(layerCoreInvoke)
		t = ctx.InvokeCPU(t, reqBytes, dlrmPreprocCycles)
		tr.next(layerAccelGather)
		for i := 0; i < len(st.Trace); i += waveWidth {
			addrs = addrs[:0]
			for _, a := range st.Trace[i:min(i+waveWidth, len(st.Trace))] {
				addrs = append(addrs, a.Addr)
			}
			t = m.Accel.ReadDataWave(t, addrs, table.RowBytes())
		}
		tr.next(layerAccelCompute)
		t = ctx.Compute(t, apuCyclesPerVector*st.ReducedVectors+st.FLOPs/64)
		tr.next(layerInterconnectSend)
		t = net.BtoA.Send(t, 8)
		tr.end()

		if !(score >= 0 && score <= 1) || len(st.Trace) == 0 {
			r.failed++
		}
		sum = mix(sum, uint64(math.Float32bits(score)))
		gathers += int64(len(st.Trace))
		return t
	})
	tr.end()
	r.runDone(&w)
	r.requests = res.Requests

	r.model.fromResult(res)
	r.model.setUtil(m, net.AtoB, net.BtoA, res.End)
	r.model.GathersPerQuery = float64(gathers) / float64(res.Requests)
	r.model.Checksum = sum
	return r
}
