// Package rambda is the public API of this repository: a full-system,
// simulation-backed reproduction of "RAMBDA: RDMA-driven Acceleration
// Framework for Memory-intensive µs-scale Datacenter Applications"
// (HPCA 2023).
//
// The package re-exports the framework's core concepts so applications
// can be written against a stable surface:
//
//   - Machines (CPU + memory devices + coherence domain + RNIC +
//     optional cc-accelerator) built from the paper's testbed
//     parameters.
//   - The RAMBDA server runtime: request/response rings, cpoll
//     notification (direct-pinned or pointer-buffer), the APU plug-in
//     interface, and the SQ handler driving the NIC.
//   - Remote (RDMA) and intra-machine clients.
//   - The CPU baseline server for comparisons.
//   - The virtual-time toolkit (clock, load drivers, histograms) that
//     every benchmark in this repository uses.
//   - Deterministic observability: per-request span tracing and a
//     metrics registry, with Chrome trace_event and JSON exporters
//     (see the Observability section below).
//
// See examples/quickstart for a minimal end-to-end application and
// DESIGN.md for the system inventory.
package rambda

import (
	"io"

	"rambda/internal/core"
	"rambda/internal/cpoll"
	"rambda/internal/hostcpu"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// Virtual time.
type (
	// Time is a point in virtual time (picoseconds).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Histogram collects latency samples.
	Histogram = sim.Histogram
	// ClosedLoop drives closed-loop load.
	ClosedLoop = sim.ClosedLoop
	// Result summarizes a load run.
	Result = sim.Result
	// RNG is the deterministic random source used across experiments.
	RNG = sim.RNG
)

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewRNG returns a deterministic random source.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// NewHistogram creates a latency histogram (cap <= 0 for the default).
func NewHistogram(cap int) *Histogram { return sim.NewHistogram(cap) }

// Memory.
type (
	// Addr is a physical address in a machine's unified space.
	Addr = memspace.Addr
	// MemKind classifies backing memory (DRAM/NVM/accelerator-local).
	MemKind = memspace.Kind
	// Region is an allocated, backed span of the address space.
	Region = memspace.Region
)

// Memory kinds.
const (
	DRAM       = memspace.KindDRAM
	NVM        = memspace.KindNVM
	AccelLocal = memspace.KindAccelLocal
)

// Machines.
type (
	// Machine is one server or client box.
	Machine = core.Machine
	// MachineConfig selects a machine's hardware.
	MachineConfig = core.MachineConfig
	// Variant selects the cc-accelerator build.
	Variant = core.AccelVariant
)

// Accelerator variants.
const (
	// NoAccel builds a plain machine (client or CPU-baseline server).
	NoAccel = core.NoAccel
	// Prototype is the paper's in-package FPGA with no local memory.
	Prototype = core.AccelBase
	// LocalDDR is the RAMBDA-LD projection (U280 DDR4).
	LocalDDR = core.AccelLD
	// LocalHBM is the RAMBDA-LH projection (U280 HBM2).
	LocalHBM = core.AccelLH
)

// NewMachine builds a machine from the paper's testbed parameters.
func NewMachine(cfg MachineConfig) *Machine { return core.NewMachine(cfg) }

// Connect wires two machines' RNICs with a 25 GbE duplex path.
func Connect(a, b *Machine) { core.ConnectMachines(a, b) }

// Framework.
type (
	// App is the application processing unit plug-in: the only
	// application-specific part of a RAMBDA accelerator.
	App = core.App
	// AppFunc adapts a function to App.
	AppFunc = core.AppFunc
	// AppCtx provides the APU's standard interfaces (coherent
	// read/write, compute, CPU invocation).
	AppCtx = core.AppCtx
	// Server is a RAMBDA server instance.
	Server = core.Server
	// ServerOptions sizes a server's rings and notification mechanism.
	ServerOptions = core.ServerOptions
	// Client is a remote (RDMA) client connection.
	Client = core.Client
	// LocalClient is an intra-machine client connection.
	LocalClient = core.LocalClient
	// NotifyMode selects cpoll vs spin-polling.
	NotifyMode = core.NotifyMode
	// CpollMode selects the cpoll region layout.
	CpollMode = cpoll.Mode
)

// Notification options.
const (
	// Cpoll is coherence-assisted notification (the paper's design).
	Cpoll = core.NotifyCpoll
	// SpinPolling is the conventional polling ablation.
	SpinPolling = core.NotifyPolling
	// DirectPinned pins the rings themselves as the cpoll region.
	DirectPinned = cpoll.Direct
	// PointerBuffer pins a compact per-ring counter array instead.
	PointerBuffer = cpoll.PointerBuffer
)

// DefaultServerOptions mirrors the prototype configuration.
func DefaultServerOptions() ServerOptions { return core.DefaultServerOptions() }

// NewServer allocates a RAMBDA server on a machine with an accelerator.
func NewServer(m *Machine, app App, opts ServerOptions) *Server {
	return core.NewServer(m, app, opts)
}

// Dial establishes remote connection idx from client machine cm.
func Dial(cm *Machine, s *Server, idx int) *Client {
	return core.ConnectClient(cm, s, idx)
}

// DialLocal establishes intra-machine connection idx.
func DialLocal(s *Server, idx int) *LocalClient {
	return core.ConnectLocalClient(s, idx)
}

// CPU baseline.
type (
	// CPUServer is the two-sided-RDMA CPU baseline server.
	CPUServer = core.CPUServer
	// CPUServerOptions sizes the baseline.
	CPUServerOptions = core.CPUServerOptions
	// CPUHandler computes a response and the core/memory work to charge.
	CPUHandler = core.CPUHandler
	// CPUClient is a remote client of the baseline.
	CPUClient = core.CPUClient
	// Work describes one request's execution on a server core (cycles,
	// memory accesses, batching/latency-hiding factors).
	Work = hostcpu.Work
)

// DefaultCPUServerOptions mirrors the evaluation configuration.
func DefaultCPUServerOptions() CPUServerOptions { return core.DefaultCPUServerOptions() }

// NewCPUServer allocates the baseline server.
func NewCPUServer(m *Machine, h CPUHandler, opts CPUServerOptions) *CPUServer {
	return core.NewCPUServer(m, h, opts)
}

// DialCPU establishes remote connection idx to the baseline server.
func DialCPU(cm *Machine, s *CPUServer, idx int) *CPUClient {
	return core.ConnectCPUClient(cm, s, idx)
}

// Storage backends. Every serving scenario talks to its storage engine
// through StorageBackend (the kvs.Backend contract): backends execute
// the operation against the simulated address space and append one
// MemAccess per touch to the caller's trace, which the APU replays
// through its coherent datapath so DRAM/NVM bandwidth is charged by
// address kind. Two engines ship: the MICA-style hash index (KVStore)
// and the tiered LSM tree (LSMTree) with key-ordered range scans; both
// are driven only through this serving contract. DispatchRequest routes
// a decoded wire request to either.
type (
	// StorageBackend is the pluggable KVS storage engine interface.
	StorageBackend = kvs.Backend
	// KVStore is the MICA-style hash index over DRAM or NVM.
	KVStore = kvs.Store
	// KVStoreConfig sizes a KVStore.
	KVStoreConfig = kvs.Config
	// LSMTree is the tiered storage engine: DRAM memtable + NVM
	// sstables, WAL-durable, merged range scans.
	LSMTree = lsm.DB
	// LSMConfig sizes an LSMTree.
	LSMConfig = lsm.Config
	// MemAccess is one traced memory touch (address, bytes, direction).
	MemAccess = kvs.Access
	// KVRequest is a decoded wire request.
	KVRequest = kvs.Request
	// KVResponse is a wire response.
	KVResponse = kvs.Response
	// KVScratch is a worker's reusable request-path buffer set.
	KVScratch = kvs.Scratch
	// KVScanPair locates one key/value pair in a flat scan buffer.
	KVScanPair = kvs.ScanPair
)

// Wire opcodes and statuses.
const (
	OpGet    = kvs.OpGet
	OpPut    = kvs.OpPut
	OpDelete = kvs.OpDelete
	// OpScan visits up to MaxScanLimit pairs from a start key; its
	// response travels through the multi-pair scan codec.
	OpScan         = kvs.OpScan
	MaxScanLimit   = kvs.MaxScanLimit
	StatusOK       = kvs.StatusOK
	StatusNotFound = kvs.StatusNotFound
	StatusError    = kvs.StatusError
)

// NewKVStore allocates a hash store in a machine's address space.
func NewKVStore(space *memspace.Space, cfg KVStoreConfig) *KVStore {
	return kvs.New(space, cfg)
}

// OpenLSM opens a fresh LSM tree on a machine's memory system (the
// machine must have NVM: MachineConfig.WithNVM).
func OpenLSM(m *Machine, cfg LSMConfig) *LSMTree {
	return lsm.Open(m.Space, m.Mem, cfg)
}

// DispatchRequest executes a decoded request against any storage
// backend using the scratch's buffers (kvs.ApplyScratch).
func DispatchRequest(b StorageBackend, r KVRequest, sc *KVScratch) (KVResponse, []MemAccess) {
	return kvs.ApplyScratch(b, r, sc)
}

// Observability. Attach a Tracer and/or Metrics registry through
// ServerOptions (Trace, Metrics fields) before NewServer; both are
// virtual-time collectors, so a run with a collector attached produces
// byte-identical exports for the same seed. Leaving them nil is the
// fast path: no spans, no samples, no allocations.
type (
	// Tracer records nested request spans in virtual time. One tracer
	// serves one deterministic run (single goroutine).
	Tracer = obs.Trace
	// Metrics is a registry of named counters and gauges sampled on a
	// virtual-time ticker.
	Metrics = obs.Registry
	// TraceStage classifies a span by pipeline stage.
	TraceStage = obs.Stage
	// TraceExport names one tracer for Chrome trace_event export.
	TraceExport = obs.TraceJSON
	// MetricsExport names one registry for JSON export.
	MetricsExport = obs.MetricsJSON
)

// Pipeline stages for spans.
const (
	StageNIC        = obs.StageNIC
	StageWire       = obs.StageWire
	StageRing       = obs.StageRing
	StageNotify     = obs.StageNotify
	StageCompute    = obs.StageCompute
	StageMemory     = obs.StageMemory
	StageScan       = obs.StageScan
	StageCompaction = obs.StageCompaction
	StageOther      = obs.StageOther
)

// NewTracer creates an empty span collector.
func NewTracer() *Tracer { return obs.NewTrace() }

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteChromeTrace writes the named tracers as Chrome trace_event JSON
// (load in chrome://tracing or Perfetto).
func WriteChromeTrace(w io.Writer, traces []TraceExport) error {
	return obs.WriteChromeTrace(w, traces)
}

// WriteChromeTraceFile is WriteChromeTrace to a file path.
func WriteChromeTraceFile(path string, traces []TraceExport) error {
	return obs.WriteChromeTraceFile(path, traces)
}

// WriteMetrics writes the named registries' samples and final values as
// JSON.
func WriteMetrics(w io.Writer, regs []MetricsExport) error {
	return obs.WriteMetrics(w, regs)
}

// WriteMetricsFile is WriteMetrics to a file path.
func WriteMetricsFile(path string, regs []MetricsExport) error {
	return obs.WriteMetricsFile(path, regs)
}
