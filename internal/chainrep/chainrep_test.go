package chainrep

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

func newMem() (*memspace.Space, *memdev.System) {
	space := memspace.New()
	return space, &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("dram", 6, 120e9, 90*sim.Nanosecond),
		NVM:   memdev.NewNVM("nvm", 6, 39e9, 300*sim.Nanosecond, 3),
		LLC:   memdev.NewLLC("llc", 300e9, 20*sim.Nanosecond),
	}
}

func newNode(name string) *Node {
	space, mem := newMem()
	return NewNode(space, mem, NodeConfig{
		Name: name, ProcDelay: 500 * sim.Nanosecond, PerTupleDelay: 100 * sim.Nanosecond,
	}, 1<<20, 1024, 4096)
}

func newChain(n int) *Chain {
	c := &Chain{
		ClientOneWay: 2 * sim.Microsecond,
		HopDelay:     2500 * sim.Nanosecond,
		WireBPS:      3.125e9,
	}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, newNode(fmt.Sprintf("r%d", i)))
	}
	return c
}

func TestEntryCodecRoundTrip(t *testing.T) {
	in := []Tuple{
		{Offset: 0, Data: []byte("alpha")},
		{Offset: 4096, Data: bytes.Repeat([]byte{7}, 1024)},
	}
	out, err := DecodeEntryInto(nil, EncodeEntry(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Offset != 0 || string(out[0].Data) != "alpha" ||
		out[1].Offset != 4096 || !bytes.Equal(out[1].Data, in[1].Data) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestEntryCodecErrors(t *testing.T) {
	if _, err := DecodeEntryInto(nil, nil); err == nil {
		t.Fatal("empty entry accepted")
	}
	if _, err := DecodeEntryInto(nil, []byte{0}); err == nil {
		t.Fatal("zero-tuple entry accepted")
	}
	if _, err := DecodeEntryInto(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header accepted")
	}
	good := EncodeEntry([]Tuple{{Offset: 1, Data: []byte("xyz")}})
	if _, err := DecodeEntryInto(nil, good[:len(good)-1]); err == nil {
		t.Fatal("truncated data accepted")
	}
}

func TestStoreReadWrite(t *testing.T) {
	space, mem := newMem()
	s := NewStore(space, mem, 4096)
	at := s.Write(0, 128, []byte("persist me"))
	if at <= 0 {
		t.Fatal("write must cost NVM time")
	}
	data, _ := s.ReadInto(nil, at, 128, 10)
	if string(data) != "persist me" {
		t.Fatalf("read=%q", data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access must panic")
		}
	}()
	s.Write(0, 4090, []byte("too far"))
}

func TestRedoLogReplayRecoversStore(t *testing.T) {
	space, mem := newMem()
	log := NewRedoLog(space, mem, 16, 256)

	txs := [][]Tuple{
		{{Offset: 0, Data: []byte("aaaa")}},
		{{Offset: 64, Data: []byte("bbbb")}, {Offset: 128, Data: []byte("cccc")}},
		{{Offset: 0, Data: []byte("AAAA")}}, // overwrites tx 1
	}
	for _, tx := range txs {
		log.Append(0, EncodeEntry(tx))
	}
	// Simulate a crash: replay the log into a fresh (empty) data area.
	fresh := NewStore(space, mem, 8192)
	n, err := log.Replay(fresh)
	if err != nil || n != 3 {
		t.Fatalf("replayed=%d err=%v", n, err)
	}
	got, _ := fresh.ReadInto(nil, 0, 0, 4)
	if string(got) != "AAAA" {
		t.Fatalf("offset 0 = %q, want last write", got)
	}
	got, _ = fresh.ReadInto(nil, 0, 64, 4)
	if string(got) != "bbbb" {
		t.Fatalf("offset 64 = %q", got)
	}
}

func TestRedoLogWrapsAndReplaysWindow(t *testing.T) {
	space, mem := newMem()
	store := NewStore(space, mem, 1<<16)
	log := NewRedoLog(space, mem, 4, 64)
	for i := 0; i < 10; i++ {
		log.Append(0, EncodeEntry([]Tuple{{Offset: uint32(i * 8), Data: []byte{byte(i)}}}))
	}
	n, err := log.Replay(store)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed=%d, want the 4-entry window", n)
	}
	// The last 4 appends (6..9) must be applied.
	for i := 6; i < 10; i++ {
		got, _ := store.ReadInto(nil, 0, uint32(i*8), 1)
		if got[0] != byte(i) {
			t.Fatalf("entry %d lost", i)
		}
	}
}

func TestLockTable(t *testing.T) {
	l := NewLockTable()
	if !l.TryAcquire([]uint32{1, 2, 3}) {
		t.Fatal("fresh acquire failed")
	}
	if l.TryAcquire([]uint32{3, 4}) {
		t.Fatal("conflicting acquire succeeded")
	}
	if l.Conflicts() != 1 {
		t.Fatal("conflict not counted")
	}
	l.Release([]uint32{1, 2, 3})
	if !l.TryAcquire([]uint32{3, 4}) {
		t.Fatal("acquire after release failed")
	}
	if l.Held() != 2 {
		t.Fatalf("held=%d", l.Held())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	l.Release([]uint32{9})
}

func TestLockTableAtomicity(t *testing.T) {
	// A failed multi-key acquire must not leave partial locks.
	l := NewLockTable()
	l.TryAcquire([]uint32{5})
	if l.TryAcquire([]uint32{4, 5}) {
		t.Fatal("conflict missed")
	}
	if l.Held() != 1 {
		t.Fatalf("partial acquire leaked: held=%d", l.Held())
	}
	l.Release([]uint32{5})
	if !l.TryAcquire([]uint32{4, 5}) {
		t.Fatal("key 4 stuck")
	}
}

func TestRambdaTxAppliesEverywhereAndReads(t *testing.T) {
	c := newChain(2)
	// Seed data at the head for the reads.
	c.Nodes[0].Store.Write(0, 512, []byte("seeded!!"))

	tx := Tx{
		Reads:  []ReadOp{{Offset: 512, Len: 8}},
		Writes: []Tuple{{Offset: 0, Data: []byte("W0")}, {Offset: 64, Data: []byte("W1")}},
	}
	vals, done, err := c.RambdaTxInto(0, tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || string(vals[0]) != "seeded!!" {
		t.Fatalf("reads=%q", vals)
	}
	if done <= 2*c.ClientOneWay+c.HopDelay {
		t.Fatalf("done=%v implausibly fast", done)
	}
	// Every replica applied both tuples and logged once.
	for i, n := range c.Nodes {
		got, _ := n.Store.ReadInto(nil, done, 0, 2)
		if string(got) != "W0" {
			t.Fatalf("replica %d missing W0: %q", i, got)
		}
		got, _ = n.Store.ReadInto(nil, done, 64, 2)
		if string(got) != "W1" {
			t.Fatalf("replica %d missing W1", i)
		}
		if n.Log.Appended() != 1 {
			t.Fatalf("replica %d log entries=%d, want 1 combined entry", i, n.Log.Appended())
		}
		if n.CC.Held() != 0 {
			t.Fatalf("replica %d leaked locks", i)
		}
	}
}

func TestHyperLoopTxAppliesPerTuple(t *testing.T) {
	c := newChain(2)
	tx := Tx{Writes: []Tuple{{Offset: 0, Data: []byte("A")}, {Offset: 64, Data: []byte("B")}}}
	_, done := c.HyperLoopTxInto(0, tx, nil)
	for i, n := range c.Nodes {
		if n.Log.Appended() != 2 {
			t.Fatalf("replica %d log entries=%d, want one per tuple", i, n.Log.Appended())
		}
		got, _ := n.Store.ReadInto(nil, done, 64, 1)
		if got[0] != 'B' {
			t.Fatalf("replica %d missing B", i)
		}
	}
}

func TestSingleWriteTxParity(t *testing.T) {
	// Paper: for a (0,1) transaction RAMBDA and HyperLoop take the same
	// path (within ~3%).
	tx := Tx{Writes: []Tuple{{Offset: 0, Data: make([]byte, 64)}}}
	_, rd, err := newChain(2).RambdaTxInto(0, tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hd := newChain(2).HyperLoopTxInto(0, tx, nil)
	ratio := float64(rd) / float64(hd)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("(0,1) parity broken: rambda=%v hyperloop=%v (ratio %.2f)", rd, hd, ratio)
	}
}

func TestMultiOpTxAdvantage(t *testing.T) {
	// Paper: for a (4,2) transaction RAMBDA cuts ~2/3 of the latency.
	mk := func() Tx {
		tx := Tx{}
		for i := 0; i < 4; i++ {
			tx.Reads = append(tx.Reads, ReadOp{Offset: uint32(i * 256), Len: 64})
		}
		for i := 0; i < 2; i++ {
			tx.Writes = append(tx.Writes, Tuple{Offset: uint32(4096 + i*256), Data: make([]byte, 64)})
		}
		return tx
	}
	_, rd, err := newChain(2).RambdaTxInto(0, mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hd := newChain(2).HyperLoopTxInto(0, mk(), nil)
	reduction := 1 - float64(rd)/float64(hd)
	if reduction < 0.5 || reduction > 0.8 {
		t.Fatalf("(4,2) reduction=%.2f, want ~0.63-0.67 (rambda=%v hyperloop=%v)", reduction, rd, hd)
	}
}

func TestConflictReported(t *testing.T) {
	c := newChain(1)
	n := c.Nodes[0]
	n.CC.TryAcquire([]uint32{0})
	_, _, err := c.RambdaTxInto(0, Tx{Writes: []Tuple{{Offset: 0, Data: []byte("x")}}}, nil)
	if err != ErrConflict {
		t.Fatalf("err=%v, want ErrConflict", err)
	}
	n.CC.Release([]uint32{0})
	if _, _, err := c.RambdaTxInto(0, Tx{Writes: []Tuple{{Offset: 0, Data: []byte("x")}}}, nil); err != nil {
		t.Fatal("post-release tx failed")
	}
}

func TestReadTxSameOnBothSystems(t *testing.T) {
	c := newChain(2)
	c.Nodes[0].Store.Write(0, 0, []byte("ro"))
	data, done := c.ReadTx(0, ReadOp{Offset: 0, Len: 2})
	if string(data) != "ro" {
		t.Fatalf("data=%q", data)
	}
	if done <= 2*c.ClientOneWay {
		t.Fatal("read tx too fast")
	}
}

func TestLogEntrySizeEnforced(t *testing.T) {
	space, mem := newMem()
	log := NewRedoLog(space, mem, 4, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize entry must panic")
		}
	}()
	log.Append(0, EncodeEntry([]Tuple{{Offset: 0, Data: make([]byte, 128)}}))
}

func TestReplayEquivalenceProperty(t *testing.T) {
	// Property: applying transactions directly and replaying the log
	// into a fresh store yield identical data areas.
	f := func(raw []uint16) bool {
		space, mem := newMem()
		direct := NewStore(space, mem, 4096)
		replayed := NewStore(space, mem, 4096)
		log := NewRedoLog(space, mem, 64, 128)
		count := 0
		for _, r := range raw {
			if count >= 64 {
				break // stay within the log window
			}
			off := uint32(r % 4000)
			data := []byte{byte(r), byte(r >> 8)}
			direct.Write(0, off, data)
			log.Append(0, EncodeEntry([]Tuple{{Offset: off, Data: data}}))
			count++
		}
		if count == 0 {
			return true
		}
		if _, err := log.Replay(replayed); err != nil {
			return false
		}
		a, _ := direct.ReadInto(nil, 0, 0, 4000)
		b, _ := replayed.ReadInto(nil, 0, 0, 4000)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
