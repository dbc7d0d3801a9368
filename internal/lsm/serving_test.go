package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"rambda/internal/kvs"
	"rambda/internal/sim"
)

// TestScanIntoMergedAcrossTiers drives the Backend range scan while
// versions of the same keys sit in the memtable, L0, and deeper levels
// at once: key order, newest-wins, tombstone hiding, start-key
// inclusivity, limits, and reverse order all hold, and the probes are
// charged to the access trace.
func TestScanIntoMergedAcrossTiers(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	const n = 40
	// Three generations: the oldest lands in deep runs, the middle in
	// L0, the newest stays in the memtable. Generation g overwrites
	// every g-th key, so each tier holds the newest version of some keys.
	for g := 1; g <= 3; g++ {
		for i := 0; i < n; i++ {
			if i%g == 0 {
				put(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("gen%d-%03d", g, i))
			}
		}
		if g < 3 {
			flush(db)
		}
	}
	// Tombstone a few keys in the memtable.
	for _, i := range []int{0, 6, 12} {
		del(db, fmt.Sprintf("key-%03d", i))
	}
	want := map[string]string{}
	for i := 0; i < n; i++ {
		g := 1
		if i%2 == 0 {
			g = 2
		}
		if i%3 == 0 {
			g = 3
		}
		if i == 0 || i == 6 || i == 12 {
			continue
		}
		want[fmt.Sprintf("key-%03d", i)] = fmt.Sprintf("gen%d-%03d", g, i)
	}

	buf, pairs, trace := db.ScanInto(nil, nil, nil, nil, len(want)+10, false)
	if len(trace) == 0 {
		t.Fatal("merged scan charged no accesses")
	}
	if len(pairs) != len(want) {
		t.Fatalf("scan yielded %d pairs, want %d", len(pairs), len(want))
	}
	prev := ""
	for _, p := range pairs {
		k, v := string(p.Key(buf)), string(p.Val(buf))
		if k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		if want[k] != v {
			t.Fatalf("key %q: %q, want %q (newest version must win)", k, v, want[k])
		}
		prev = k
	}

	// Start key inclusive + limit.
	buf2, pairs2, _ := db.ScanInto(nil, nil, nil, []byte("key-010"), 5, false)
	if len(pairs2) != 5 || string(pairs2[0].Key(buf2)) != "key-010" {
		t.Fatalf("bounded scan starts at %q with %d pairs", pairs2[0].Key(buf2), len(pairs2))
	}
	// Reverse from the same start walks downward.
	buf3, pairs3, _ := db.ScanInto(nil, nil, nil, []byte("key-010"), 5, true)
	if string(pairs3[0].Key(buf3)) != "key-010" {
		t.Fatalf("reverse scan starts at %q", pairs3[0].Key(buf3))
	}
	for i := 1; i < len(pairs3); i++ {
		if string(pairs3[i].Key(buf3)) >= string(pairs3[i-1].Key(buf3)) {
			t.Fatal("reverse scan not descending")
		}
	}
}

// TestRecoveryMidFlushCut crashes the DB at the worst moment the WAL
// discipline allows: new writes have landed in the WAL after a flush,
// and the crash cuts the durable prefix mid-record. Recovery must keep
// the flushed runs, replay the intact tail records, discard the torn
// one, and resume the sequence counter so post-recovery writes still
// win over every recovered version.
func TestRecoveryMidFlushCut(t *testing.T) {
	db, space, mem := newDB(t, smallConfig())
	for i := 0; i < 30; i++ {
		put(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("flushed-%03d", i))
	}
	flush(db)
	// Post-flush writes: these exist only in the WAL.
	for i := 0; i < 8; i++ {
		put(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("walonly-%03d", i))
	}
	wal, walValid := db.WAL()
	preSeq := db.Stats().Seq

	// Cut mid-record: the last record loses its tail.
	re, err := Recover(space, mem, smallConfig(), wal, walValid-3, db.Runs())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Seq; got < preSeq-1 || got > preSeq {
		t.Fatalf("recovered seq %d, want %d or %d", got, preSeq-1, preSeq)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%03d", i)
		want := fmt.Sprintf("flushed-%03d", i)
		if i < 7 { // 8 WAL records, last one torn off
			want = fmt.Sprintf("walonly-%03d", i)
		}
		v, ok := get(re, k)
		if !ok || v != want {
			t.Fatalf("key %q after recovery: %q ok=%v, want %q", k, v, ok, want)
		}
	}
	// The sequence counter resumed: a new write beats its recovered
	// version even for the key whose record was torn.
	put(t, re, "key-007", "post-recovery")
	if v, ok := get(re, "key-007"); !ok || v != "post-recovery" {
		t.Fatalf("post-recovery write lost: read %q ok=%v", v, ok)
	}
}

// TestMaintainStallsOnWALWrap pins the write-stall accounting on the
// Backend path: filling the WAL forces a synchronous flush whose NVM
// drain Maintain reports as a stall, and the stall counter moves.
func TestMaintainStallsOnWALWrap(t *testing.T) {
	// WAL smaller than the memtable: the log wraps (and forces a
	// synchronous flush) before the memtable fills on its own.
	db, _, _ := newDB(t, Config{
		MemtableBytes: 8 << 10,
		L0Runs:        2,
		SSTableBytes:  8 << 10,
		WALBytes:      1 << 10,
		MaxLevels:     3,
	})
	val := bytes.Repeat([]byte{'v'}, 64)
	var trace []kvs.Access
	var key []byte
	sawStall := false
	for i := 0; i < 200; i++ {
		key = append(key[:0], fmt.Sprintf("key-%03d", i%32)...)
		tr, err := db.PutInto(trace[:0], key, val)
		if err != nil {
			t.Fatal(err)
		}
		trace = tr
		if len(trace) == 0 {
			t.Fatal("PutInto charged no accesses")
		}
		if at, stalled := db.Maintain(sim.Time(i)); stalled {
			sawStall = true
			if at <= sim.Time(i) {
				t.Fatalf("stall resolved at %v, not after now %v", at, sim.Time(i))
			}
		}
	}
	if !sawStall {
		t.Fatal("WAL never wrapped: stall path not exercised")
	}
	if db.Stats().Stalls == 0 {
		t.Fatal("stall counter did not move")
	}
}

// TestApplyScratchOverLSM drives decoded wire requests over the LSM
// backend through the same dispatch the serving handler uses — the
// api_redesign contract that hash and LSM are interchangeable behind
// kvs.Backend — including an OpScan answered in key order.
func TestApplyScratchOverLSM(t *testing.T) {
	db, _, _ := newDB(t, Config{
		MemtableBytes: 8 << 10,
		L0Runs:        2,
		SSTableBytes:  64 << 10,
		WALBytes:      32 << 10,
		MaxLevels:     3,
	})
	var sc kvs.Scratch
	do := func(r kvs.Request) kvs.Response {
		req, err := kvs.DecodeRequest(kvs.AppendRequest(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		resp, trace := kvs.ApplyScratch(db, req, &sc)
		if resp.Status == kvs.StatusOK && len(trace) == 0 {
			t.Fatalf("op %d: no accesses charged", r.Op)
		}
		return resp
	}
	for i := 0; i < 50; i++ {
		resp := do(kvs.Request{Op: kvs.OpPut,
			Key: []byte(fmt.Sprintf("key-%03d", i)), Val: []byte(fmt.Sprintf("val-%03d", i))})
		if resp.Status != kvs.StatusOK {
			t.Fatalf("put %d: status %d", i, resp.Status)
		}
	}
	flush(db)
	if resp := do(kvs.Request{Op: kvs.OpGet, Key: []byte("key-017")}); resp.Status != kvs.StatusOK ||
		string(resp.Val) != "val-017" {
		t.Fatalf("get: %d %q", resp.Status, resp.Val)
	}
	if resp := do(kvs.Request{Op: kvs.OpDelete, Key: []byte("key-017")}); resp.Status != kvs.StatusOK {
		t.Fatalf("delete: %d", resp.Status)
	}
	if resp := do(kvs.Request{Op: kvs.OpGet, Key: []byte("key-017")}); resp.Status != kvs.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.Status)
	}
	if resp := do(kvs.Request{Op: kvs.OpScan, Key: []byte("key-015"), ScanLimit: 4}); resp.Status != kvs.StatusOK {
		t.Fatalf("scan: %d", resp.Status)
	}
	wantKeys := []string{"key-015", "key-016", "key-018", "key-019"} // 017 deleted
	if len(sc.ScanPairs) != len(wantKeys) {
		t.Fatalf("scan yielded %d pairs, want %d", len(sc.ScanPairs), len(wantKeys))
	}
	for i, p := range sc.ScanPairs {
		if got := string(p.Key(sc.ScanBuf)); got != wantKeys[i] {
			t.Fatalf("scan pair %d: %q, want %q", i, got, wantKeys[i])
		}
	}
}
