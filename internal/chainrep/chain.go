package chainrep

import (
	"errors"

	"rambda/internal/fault"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// ErrConflict reports that a transaction lost its concurrency-control
// race and must retry (paper: conflicting transactions "will be
// buffered in the queue in the order of arrival"; the serial evaluation
// client never conflicts).
var ErrConflict = errors.New("chainrep: key locked by an outstanding transaction")

// NodeConfig sets a replica's processing costs.
type NodeConfig struct {
	Name string
	// ProcDelay is the per-request processing time of the node's
	// processing unit (the RAMBDA accelerator or the emulated
	// HyperLoop RNIC firmware).
	ProcDelay sim.Duration
	// PerTupleDelay is the additional processing per write tuple
	// (concurrency-control lookup, FSM transition).
	PerTupleDelay sim.Duration
}

// Node is one replica: persistent data area + redo log + concurrency
// control.
type Node struct {
	cfg   NodeConfig
	Store *Store
	Log   *RedoLog
	CC    *LockTable

	// Per-node request-path scratch (each sweep point drives its chain
	// from one goroutine): lock offsets, the encoded log entry, and a
	// one-tuple slice header for the HyperLoop path.
	offsets  []uint32
	entryBuf []byte
	one      [1]Tuple
}

// NewNode builds a replica inside the given space/memory system.
func NewNode(space *memspace.Space, mem *memdev.System, cfg NodeConfig,
	dataBytes uint64, logEntries, logEntrySize int) *Node {
	return &Node{
		cfg:   cfg,
		Store: NewStore(space, mem, dataBytes),
		Log:   NewRedoLog(space, mem, logEntries, logEntrySize),
		CC:    NewLockTable(),
	}
}

// applyTx runs the RAMBDA accelerator path at this node: concurrency
// control, combined log append, then data writes.
func (n *Node) applyTx(now sim.Time, writes []Tuple) (sim.Time, error) {
	offsets := n.offsets[:0]
	for _, w := range writes {
		offsets = append(offsets, w.Offset)
	}
	n.offsets = offsets
	if !n.CC.TryAcquire(offsets) {
		return now, ErrConflict
	}
	defer n.CC.Release(offsets)

	at := now + n.cfg.ProcDelay + sim.Duration(len(writes))*n.cfg.PerTupleDelay
	n.entryBuf = AppendEntry(n.entryBuf[:0], writes)
	at = n.Log.Append(at, n.entryBuf)
	for _, w := range writes {
		at = n.Store.Write(at, w.Offset, w.Data)
	}
	return at, nil
}

// applyHyperLoop runs the RNIC-firmware path for a single tuple: the
// group-based RDMA write lands in the log and the data area directly,
// with no concurrency control (HyperLoop's semantics cover one pair per
// operation).
func (n *Node) applyHyperLoop(now sim.Time, w Tuple) sim.Time {
	at := now + n.cfg.ProcDelay
	n.one[0] = w
	n.entryBuf = AppendEntry(n.entryBuf[:0], n.one[:])
	at = n.Log.Append(at, n.entryBuf)
	return n.Store.Write(at, w.Offset, w.Data)
}

// ReadOp is one read of a transaction.
type ReadOp struct {
	Offset uint32
	Len    int
}

// Tx is a multi-operation transaction, e.g. the paper's (4 reads, 2
// writes) representative workload.
type Tx struct {
	Reads  []ReadOp
	Writes []Tuple
}

// Chain is the replication chain plus the emulated network topology of
// Fig. 11: the client reaches the head over the datacenter link, and
// replicas are bridged by the client SmartNIC's ARM routing (2-3 us per
// hop in the paper's measurement).
type Chain struct {
	Nodes []*Node
	// ClientOneWay is the client<->chain one-way latency (network +
	// PCIe at each end).
	ClientOneWay sim.Duration
	// HopDelay is the inter-replica routing latency.
	HopDelay sim.Duration
	// WireBPS is the network bandwidth for payload serialization.
	WireBPS float64

	// Availability layer (failover.go). inj == nil — the default, until
	// EnableFaultDetection — is the fault-free fast path: no liveness
	// checks, no history retention, byte-identical timing.
	inj        *fault.Injector
	ackTimeout sim.Duration
	alive      []bool
	applied    []int // committed write sets applied per replica
	// history holds the committed write sets for rejoin catch-up, each
	// encoded as a log entry and appended to one buffer; historyEnd[k]
	// is the end of set k. It is emptied whenever every replica has
	// applied all of it (trimHistory). catchUp is Rejoin's decode
	// scratch.
	history    []byte
	historyEnd []int
	catchUp    []Tuple
	fstats     FailoverStats
}

// wire returns the serialization delay of `bytes` on the chain's links.
func (c *Chain) wire(bytes int) sim.Duration {
	if c.WireBPS <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / c.WireBPS * float64(sim.Second))
}

// ackBytes is the size of a chain ACK / client completion.
const ackBytes = 32

// TxScratch holds reusable per-transaction result storage for the Into
// transaction forms: one backing buffer per read slot plus the returned
// value-slice header. Buffers grow to the workload's high-water mark and
// are then reused, so steady-state transactions read without
// allocating. Returned values alias the scratch and stay valid only
// until the next transaction that uses the same scratch.
type TxScratch struct {
	vals [][]byte
	bufs [][]byte
}

// buf returns read slot i's backing buffer, empty but with retained
// capacity.
func (sc *TxScratch) buf(i int) []byte {
	for len(sc.bufs) <= i {
		sc.bufs = append(sc.bufs, nil)
	}
	return sc.bufs[i][:0]
}

// RambdaTxInto executes a transaction with the RAMBDA protocol: the
// client issues ONE combined request; the head's accelerator executes
// reads and concurrency control, the combined log entry flows down the
// chain, and the tail responds to the client (Fig. 11's path 1→2→3→4).
// Read results land in sc's reused buffers (sc may be nil, in which case
// every read allocates a fresh buffer).
func (c *Chain) RambdaTxInto(now sim.Time, tx Tx, sc *TxScratch) (vals [][]byte, done sim.Time, err error) {
	reqBytes := ackBytes
	if len(tx.Writes) > 0 {
		reqBytes = EntryBytes(tx.Writes)
	}
	at := now + c.wire(reqBytes) + c.ClientOneWay
	hi, at, err := c.headAt(at)
	if err != nil {
		return nil, now, err
	}
	head := c.Nodes[hi]

	// Reads execute at the head (chain replication serves consistent
	// reads from one end); after a head crash the detector has already
	// routed us to the next live replica, which holds every committed
	// write.
	if sc != nil {
		vals = sc.vals[:0]
	}
	respBytes := ackBytes
	for ri, r := range tx.Reads {
		var dst []byte
		if sc != nil {
			dst = sc.buf(ri)
		}
		var data []byte
		data, at = head.Store.ReadInto(dst, at, r.Offset, r.Len)
		if sc != nil {
			sc.bufs[ri] = data
		}
		vals = append(vals, data)
		respBytes += r.Len
	}
	if sc != nil {
		sc.vals = vals
	}

	// Writes replicate down the chain (read-only transactions skip the
	// chain entirely, like HyperLoop's direct reads).
	if len(tx.Writes) > 0 {
		if c.inj != nil {
			at, err = c.replicateFaulty(at, tx.Writes, reqBytes)
			if err != nil {
				return nil, now, err
			}
		} else {
			for i, node := range c.Nodes {
				if i > 0 {
					at += c.HopDelay + c.wire(reqBytes)
				}
				at, err = node.applyTx(at, tx.Writes)
				if err != nil {
					return nil, now, err
				}
			}
		}
	}

	return vals, at + c.wire(respBytes) + c.ClientOneWay, nil
}

// HyperLoopTxInto executes the same transaction with HyperLoop's
// group-based primitives: every read is a one-sided RDMA read to the
// head and every write tuple is a separate group operation traversing
// the whole chain, all issued sequentially by the client (paper: "the
// client needs to sequentially issue RDMA operations for each key-value
// pair"). Like RambdaTxInto, sc may be nil.
func (c *Chain) HyperLoopTxInto(now sim.Time, tx Tx, sc *TxScratch) (vals [][]byte, done sim.Time) {
	at := now
	head := c.Nodes[0]
	if sc != nil {
		vals = sc.vals[:0]
	}
	for ri, r := range tx.Reads {
		at += c.ClientOneWay + c.wire(ackBytes) // read request
		var dst []byte
		if sc != nil {
			dst = sc.buf(ri)
		}
		var data []byte
		data, at = head.Store.ReadInto(dst, at, r.Offset, r.Len)
		if sc != nil {
			sc.bufs[ri] = data
		}
		vals = append(vals, data)
		at += c.ClientOneWay + c.wire(r.Len) // data back
	}
	if sc != nil {
		sc.vals = vals
	}
	for _, w := range tx.Writes {
		entryLen := 1 + tupleHdr + len(w.Data)
		at += c.ClientOneWay + c.wire(entryLen)
		for i, node := range c.Nodes {
			if i > 0 {
				at += c.HopDelay + c.wire(entryLen)
			}
			at = node.applyHyperLoop(at, w)
		}
		at += c.ClientOneWay + c.wire(ackBytes) // group ACK
	}
	return vals, at
}

// ReadTx is a pure-read transaction: identical in both systems (one
// one-sided RDMA read to the head), excluded from the paper's
// comparison for that reason.
func (c *Chain) ReadTx(now sim.Time, r ReadOp) ([]byte, sim.Time) {
	at := now + c.ClientOneWay + c.wire(ackBytes)
	hi, at, err := c.headAt(at)
	if err != nil {
		return nil, at
	}
	data, at := c.Nodes[hi].Store.ReadInto(nil, at, r.Offset, r.Len)
	return data, at + c.ClientOneWay + c.wire(r.Len)
}
