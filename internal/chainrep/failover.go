package chainrep

import (
	"bytes"
	"errors"

	"rambda/internal/fault"
	"rambda/internal/sim"
)

// This file is the chain's availability layer under fault injection:
// crash detection via missed acks (the predecessor times out waiting for
// the downstream ack and declares the replica dead), chain
// reconfiguration that splices the dead replica out, and rejoin with
// redo-log replay plus catch-up of the transactions committed while the
// replica was gone. With no injector attached (EnableFaultDetection
// never called) every path below is skipped and the chain behaves
// byte-identically to the fault-free model.

// ErrNoReplicas reports that every replica of the chain is down.
var ErrNoReplicas = errors.New("chainrep: no live replicas")

// defaultAckTimeout is the missed-ack detection timer when
// EnableFaultDetection is given none: comfortably above the per-hop
// latency so healthy chains never false-positive.
const defaultAckTimeout = 50 * sim.Microsecond

// FailoverStats counts the availability layer's work.
type FailoverStats struct {
	// MissedAcks counts detection timeouts charged; Failovers counts
	// replicas spliced out; Rejoins counts replicas brought back;
	// ReplayedTx counts redo-log entries replayed during rejoins;
	// CaughtUpTx counts committed transactions re-shipped to rejoining
	// replicas.
	MissedAcks, Failovers, Rejoins, ReplayedTx, CaughtUpTx int64
}

// Name returns the replica's node name (the key fault windows match).
func (n *Node) Name() string { return n.cfg.Name }

// EnableFaultDetection arms the chain's failure detector against the
// instantiated fault plan. ackTimeout <= 0 takes the default. From this
// point on, committed write sets are retained until every replica has
// applied them, so spliced-out replicas can catch up on rejoin.
func (c *Chain) EnableFaultDetection(inj *fault.Injector, ackTimeout sim.Duration) {
	if ackTimeout <= 0 {
		ackTimeout = defaultAckTimeout
	}
	c.inj = inj
	c.ackTimeout = ackTimeout
	c.alive = make([]bool, len(c.Nodes))
	for i := range c.alive {
		c.alive[i] = true
	}
	c.downKind = make([]fault.Kind, len(c.Nodes))
	c.applied = make([]int, len(c.Nodes))
}

// FailoverStats returns the availability counters.
func (c *Chain) FailoverStats() FailoverStats { return c.fstats }

// Alive reports whether replica i is currently part of the chain.
func (c *Chain) Alive(i int) bool { return c.inj == nil || c.alive[i] }

// LiveReplicas counts replicas currently in the chain.
func (c *Chain) LiveReplicas() int {
	if c.inj == nil {
		return len(c.Nodes)
	}
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// spliceOut removes replica i from the chain (reconfiguration: its
// predecessor forwards directly to its successor from now on).
func (c *Chain) spliceOut(i int, kind fault.Kind) {
	c.alive[i] = false
	c.downKind[i] = kind
	c.fstats.Failovers++
}

// headAt resolves the current head: the first live replica that is
// actually up at `at`. A dead head costs the caller one ack timeout per
// detection before the chain reconfigures around it.
func (c *Chain) headAt(at sim.Time) (int, sim.Time, error) {
	if c.inj == nil {
		return 0, at, nil
	}
	for i, node := range c.Nodes {
		if !c.alive[i] {
			continue
		}
		if down, kind := c.inj.NodeState(node.Name(), at); down {
			at += sim.Time(c.ackTimeout)
			c.fstats.MissedAcks++
			c.spliceOut(i, kind)
			continue
		}
		return i, at, nil
	}
	return -1, at, ErrNoReplicas
}

// replicateFaulty pushes one committed write set down the live chain,
// detecting dead replicas by their missing acks and splicing them out.
// A crashing replica may have persisted the write-ahead log entry before
// dying mid-apply (torn transaction) — redo-log replay repairs that on
// rejoin.
func (c *Chain) replicateFaulty(at sim.Time, writes []Tuple, reqBytes int) (sim.Time, error) {
	committed := 0
	for i, node := range c.Nodes {
		if !c.alive[i] {
			continue
		}
		if committed > 0 {
			at += c.HopDelay + c.wire(reqBytes)
		}
		if down, kind := c.inj.NodeState(node.Name(), at); down {
			// The upstream replica waits out the ack timeout, declares
			// this one dead, and the chain reconfigures around it.
			at += sim.Time(c.ackTimeout)
			c.fstats.MissedAcks++
			c.spliceOut(i, kind)
			if kind == fault.Crash {
				// Write-ahead semantics: the entry may have reached the
				// victim's NVM log before the data writes — leave the
				// torn entry for replay to repair.
				node.entryBuf = AppendEntry(node.entryBuf[:0], writes)
				node.Log.Append(at, node.entryBuf)
			}
			continue
		}
		var err error
		at, err = node.applyTx(at, writes)
		if err != nil {
			return at, err
		}
		c.applied[i]++
		committed++
	}
	// Retain the write set whether or not any replica committed it:
	// a crashing replica may hold the set's torn log entry (appended
	// above), so rejoin catch-up must drive every replica — including
	// ones spliced out before this set — to the same outcome for it.
	// When committed == 0 the client sees ErrNoReplicas and retries
	// with identical bytes, so retaining the "failed" set is idempotent
	// with the retry: the write surfaces exactly once, never torn.
	c.history = AppendEntry(c.history, writes)
	c.historyEnd = append(c.historyEnd, len(c.history))
	c.trimHistory()
	if committed == 0 {
		return at, ErrNoReplicas
	}
	return at, nil
}

// trimHistory drops the catch-up history once every replica has
// applied all of it, keeping the buffers' capacity and rebasing the
// applied counts. A spliced-out replica lags until its Rejoin, so while
// one is out the history keeps every set from that replica's applied
// index on; with the whole chain live it holds no set between writes.
func (c *Chain) trimHistory() {
	for _, n := range c.applied {
		if n < len(c.historyEnd) {
			return
		}
	}
	c.history, c.historyEnd = c.history[:0], c.historyEnd[:0]
	clear(c.applied)
}

// applyCatchUp re-applies one committed entry at a rejoining replica:
// log append plus data writes, with no concurrency control (the entry
// already committed on the live chain).
func (n *Node) applyCatchUp(now sim.Time, writes []Tuple) sim.Time {
	at := now + n.cfg.ProcDelay + sim.Duration(len(writes))*n.cfg.PerTupleDelay
	n.entryBuf = AppendEntry(n.entryBuf[:0], writes)
	at = n.Log.Append(at, n.entryBuf)
	for _, w := range writes {
		at = n.Store.Write(at, w.Offset, w.Data)
	}
	return at
}

// ApplyCommitted pushes an already-committed write set down the whole
// chain — log append plus data writes at every replica, with no
// concurrency control — and returns the client-visible completion time.
// This is the rejoin catch-up machinery (applyCatchUp) exposed for
// constructive reconfiguration: internal/scaleout installs migration
// snapshot chunks and redo-log catch-up entries into a destination
// shard's chain through it. With fault detection armed it takes the
// same detection/splice/history path as a regular replicated write, so
// a later Rejoin still catches the replica up.
func (c *Chain) ApplyCommitted(now sim.Time, writes []Tuple) (sim.Time, error) {
	reqBytes := EntryBytes(writes)
	at := now + c.wire(reqBytes) + c.ClientOneWay
	if c.inj != nil {
		var err error
		at, err = c.replicateFaulty(at, writes, reqBytes)
		if err != nil {
			return now, err
		}
	} else {
		for i, node := range c.Nodes {
			if i > 0 {
				at += c.HopDelay + c.wire(reqBytes)
			}
			at = node.applyCatchUp(at, writes)
		}
	}
	return at + c.wire(ackBytes) + c.ClientOneWay, nil
}

// Rejoin brings a spliced-out replica back into the chain: it waits out
// the rest of the node's fault window, replays the replica's own redo
// log (a crash loses in-flight volatile state; the NVM log repairs any
// torn transaction), then catches up on every write set committed while
// it was out, and finally rejoins the chain. It returns when the replica
// is state-equal with the live chain and serving again.
func (c *Chain) Rejoin(now sim.Time, i int) (sim.Time, error) {
	if c.inj == nil || c.alive[i] {
		return now, nil
	}
	node := c.Nodes[i]
	at := c.inj.NodeUpAt(node.Name(), now)
	if c.downKind[i] == fault.Crash {
		n, err := node.Log.Replay(node.Store)
		if err != nil {
			return at, err
		}
		c.fstats.ReplayedTx += int64(n)
	}
	for k := c.applied[i]; k < len(c.historyEnd); k++ {
		start := 0
		if k > 0 {
			start = c.historyEnd[k-1]
		}
		entry := c.history[start:c.historyEnd[k]]
		writes, err := DecodeEntryInto(c.catchUp, entry)
		c.catchUp = writes
		if err != nil {
			return at, err
		}
		at += c.HopDelay + c.wire(len(entry))
		at = node.applyCatchUp(at, writes)
		c.applied[i]++
		c.fstats.CaughtUpTx++
	}
	c.alive[i] = true
	c.fstats.Rejoins++
	return at, nil
}

// StateEqual compares the first n bytes of two replicas' data areas —
// the rejoin acceptance check.
func StateEqual(a, b *Store, n int) bool {
	av, _ := a.ReadInto(nil, 0, 0, n)
	bv, _ := b.ReadInto(nil, 0, 0, n)
	return bytes.Equal(av, bv)
}
