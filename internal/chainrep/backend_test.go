package chainrep

import (
	"bytes"
	"fmt"
	"testing"

	"rambda/internal/lsm"
	"rambda/internal/sim"
)

func newLSMNode(name string) *Node {
	space, mem := newMem()
	cfg := lsm.DefaultConfig()
	cfg.MemtableBytes = 4 << 10
	return NewNodeLSM(space, mem, NodeConfig{
		Name: name, ProcDelay: 320 * sim.Nanosecond, PerTupleDelay: 50 * sim.Nanosecond,
	}, cfg, 1024, 4096)
}

func TestLSMBackendReadWrite(t *testing.T) {
	space, mem := newMem()
	b := NewLSMBackend(space, mem, lsm.DefaultConfig())
	at := b.Write(0, 256, []byte("persisted"))
	if at <= 0 {
		t.Fatal("LSM write must charge WAL time")
	}
	data, _ := b.ReadInto(nil, at, 256, 9)
	if string(data) != "persisted" {
		t.Fatalf("read=%q", data)
	}
	// Missing offsets read as zeroes (flat-store semantics).
	data, _ = b.ReadInto(nil, at, 512, 4)
	if !bytes.Equal(data, make([]byte, 4)) {
		t.Fatalf("missing offset = %v", data)
	}
	// Short stored values pad out.
	data, _ = b.ReadInto(nil, at, 256, 16)
	if len(data) != 16 || string(data[:9]) != "persisted" {
		t.Fatalf("padded read = %q", data)
	}
}

func TestChainOverLSMBackend(t *testing.T) {
	c := &Chain{
		ClientOneWay: 2 * sim.Microsecond,
		HopDelay:     2500 * sim.Nanosecond,
		WireBPS:      3.125e9,
	}
	for i := 0; i < 2; i++ {
		c.Nodes = append(c.Nodes, newLSMNode(fmt.Sprintf("r%d", i)))
	}
	tx := Tx{Writes: []Tuple{
		{Offset: 0, Data: []byte("W0")},
		{Offset: 64, Data: []byte("W1")},
	}}
	_, done, err := c.RambdaTxInto(0, tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		got, _ := n.Store.ReadInto(nil, done, 64, 2)
		if string(got) != "W1" {
			t.Fatalf("replica %d missing write: %q", i, got)
		}
	}
	// Reads see writes through the same backend.
	vals, _, err := c.RambdaTxInto(done, Tx{Reads: []ReadOp{{Offset: 0, Len: 2}}}, nil)
	if err != nil || string(vals[0]) != "W0" {
		t.Fatalf("read-back: %q err=%v", vals, err)
	}
}

func TestBackendsAgreeUnderSameTxStream(t *testing.T) {
	flat := newChain(2)
	lsmChain := &Chain{ClientOneWay: flat.ClientOneWay, HopDelay: flat.HopDelay, WireBPS: flat.WireBPS}
	for i := 0; i < 2; i++ {
		lsmChain.Nodes = append(lsmChain.Nodes, newLSMNode(fmt.Sprintf("l%d", i)))
	}
	rng := sim.NewRNG(33)
	now1, now2 := sim.Time(0), sim.Time(0)
	for i := 0; i < 200; i++ {
		off := uint32(rng.Intn(64)) * 64
		data := []byte(fmt.Sprintf("v%06d", i))
		tx := Tx{Writes: []Tuple{{Offset: off, Data: data}}}
		var err error
		if _, now1, err = flat.RambdaTxInto(now1, tx, nil); err != nil {
			t.Fatal(err)
		}
		if _, now2, err = lsmChain.RambdaTxInto(now2, tx, nil); err != nil {
			t.Fatal(err)
		}
	}
	for off := uint32(0); off < 64*64; off += 64 {
		a, _ := flat.Nodes[0].Store.ReadInto(nil, now1, off, 7)
		b, _ := lsmChain.Nodes[0].Store.ReadInto(nil, now2, off, 7)
		if !bytes.Equal(a, b) {
			t.Fatalf("backends diverge at offset %d: %q vs %q", off, a, b)
		}
	}
}

func TestRedoLogReplayIntoLSM(t *testing.T) {
	// The redo log can rebuild an LSM replica just like a flat one.
	n := newLSMNode("src")
	n.applyTx(0, []Tuple{{Offset: 0, Data: []byte("aa")}, {Offset: 64, Data: []byte("bb")}})
	n.applyTx(0, []Tuple{{Offset: 0, Data: []byte("AA")}})

	fresh := newLSMNode("dst")
	replayed, err := n.Log.Replay(fresh.Store)
	if err != nil || replayed != 2 {
		t.Fatalf("replayed=%d err=%v", replayed, err)
	}
	got, _ := fresh.Store.ReadInto(nil, 0, 0, 2)
	if string(got) != "AA" {
		t.Fatalf("offset 0 = %q", got)
	}
	got, _ = fresh.Store.ReadInto(nil, 0, 64, 2)
	if string(got) != "bb" {
		t.Fatalf("offset 64 = %q", got)
	}
}
