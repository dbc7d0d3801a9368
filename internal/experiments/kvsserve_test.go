package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"rambda/internal/core"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/sim"
)

// testServer builds a small RAMBDA KVS with keys preloaded pairs over
// the named backend ("hash" or "lsm"), sized like the ycsb sweep. It
// returns the LSM tree and server machine too (nil for hash) so tests
// can inspect persistent state.
func testServer(t *testing.T, backend string, keys int) (*kvsServer, *lsm.DB, *core.Machine) {
	t.Helper()
	cfg := DefaultYCSBConfig()
	var db *lsm.DB
	var sm *core.Machine
	srv := newKVSServer(kvsServeOpts{
		Variant:       core.AccelBase,
		WithNVM:       true,
		Connections:   2,
		RingEntries:   cfg.Batch * 4,
		EntryBytes:    128 + cfg.ScanLen*(6+18+cfg.ValueBytes),
		ResponseBatch: cfg.Batch,
	}, func(m *core.Machine) kvs.Backend {
		sm = m
		if backend == "lsm" {
			db = lsm.Open(m.Space, m.Mem, ycsbLSMConfig())
			preload(db, keys, cfg.ValueBytes)
			db.Maintain(0)
			return db
		}
		store := hashStore(m.Space, m.DataKind(), keys, 2*keys)
		preload(store, keys, cfg.ValueBytes)
		return store
	})
	return srv, db, sm
}

// TestKVSServerReadYourWrites runs PUT then GET of the same key through
// the server — an update of a preloaded key and an insert of a new one
// — on both backends. The handler charges each traced write with the
// bytes the backend placed; charging any other bytes would overwrite
// the item (hash: the key no longer matches, so the GET misses; lsm:
// the WAL record is lost to recovery).
func TestKVSServerReadYourWrites(t *testing.T) {
	for _, backend := range ycsbBackends {
		t.Run(backend, func(t *testing.T) {
			srv, db, sm := testServer(t, backend, 256)
			now := sim.Time(0)
			want := map[string]string{}
			for i, k := range []int{7, 100000} {
				key := appendKVSKey(nil, k)
				val := []byte("fresh-value-" + string(rune('a'+i)))
				resp, done := srv.callOn(i, now, kvs.Request{Op: kvs.OpPut, Key: key, Val: val})
				if resp.Status != kvs.StatusOK {
					t.Fatalf("PUT %s: status %d", key, resp.Status)
				}
				resp, done = srv.callOn(i, done, kvs.Request{Op: kvs.OpGet, Key: key})
				if resp.Status != kvs.StatusOK || !bytes.Equal(resp.Val, val) {
					t.Fatalf("GET %s after PUT: status %d value %q, want %q", key, resp.Status, resp.Val, val)
				}
				want[string(key)] = string(val)
				now = done
			}
			if db == nil {
				return
			}
			wal, walValid := db.WAL()
			re, err := lsm.Recover(sm.Space, sm.Mem, ycsbLSMConfig(), wal, walValid, db.Runs())
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			for k, v := range want {
				if got, _, ok := re.GetInto(nil, nil, []byte(k)); !ok || string(got) != v {
					t.Fatalf("%s after recovery: %q ok=%v, want %q", k, got, ok, v)
				}
			}
		})
	}
}

// TestKVSServerBadFrameGetsStatusError sends truncated frames straight
// through core.Client.Call: the server answers StatusError and keeps
// serving.
func TestKVSServerBadFrameGetsStatusError(t *testing.T) {
	srv, _, _ := testServer(t, "hash", 64)
	key := appendKVSKey(nil, 3)
	frame := kvs.AppendRequest(nil, kvs.Request{Op: kvs.OpPut, Key: key, Val: []byte("value")})
	now := sim.Time(0)
	for _, bad := range [][]byte{frame[:4], frame[:len(frame)-1], {byte(kvs.OpScan), 1}} {
		respB, done := srv.conns[0].Call(now, bad)
		resp, err := kvs.DecodeResponse(respB)
		if err != nil || resp.Status != kvs.StatusError {
			t.Fatalf("frame %x: got status %d err %v, want StatusError", bad, resp.Status, err)
		}
		now = done
	}
	resp, _ := srv.callOn(0, now, kvs.Request{Op: kvs.OpGet, Key: key})
	if resp.Status != kvs.StatusOK {
		t.Fatalf("GET after bad frames: status %d, want OK", resp.Status)
	}
}

// steadyStateAllocs warms sys up with gen's requests, then reports the
// allocations of one more generate-and-call.
func steadyStateAllocs(sys kvsCaller, gen func(*kvsWork)) float64 {
	var wk kvsWork
	now := sim.Time(0)
	i := 0
	call := func() {
		gen(&wk)
		_, now = sys.callOn(i, now, wk.request())
		i++
	}
	for j := 0; j < 4000; j++ {
		call()
	}
	return testing.AllocsPerRun(500, call)
}

// TestKVSServerSteadyStateZeroAlloc guards the serving harness's
// request path: once buffers reach their high-water mark, a call
// allocates nothing — fig8's shape (hash store, 50/50 GET/PUT) on the
// RAMBDA server and the SmartNIC baseline, and ycsb-A's LSM server on
// its read half. An LSM PUT that flushes allocates the new run, so the
// update half is zero only between flushes (guarded in internal/lsm).
func TestKVSServerSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	cfg := testKVSConfig()
	fig8 := newRambdaKVS(cfg, preloadStore(cfg.storeShape()), core.AccelBase, cfg.Batch)
	if n := steadyStateAllocs(fig8, kvsGen(cfg, true, true)); n != 0 {
		t.Errorf("fig8 shape: %.2f allocs per call, want 0", n)
	}
	// The SmartNIC baseline: cache hits, misses that insert and evict,
	// and PUTs that refresh, all copying into slots the cache owns.
	snic := newSNICKVS(cfg, preloadStore(cfg.storeShape()))
	if n := steadyStateAllocs(snic, kvsGen(cfg, true, true)); n != 0 {
		t.Errorf("SmartNIC fig8 shape: %.2f allocs per call, want 0", n)
	}

	ycfg := DefaultYCSBConfig()
	ycfg.Keys = 1 << 11
	srv, _, _ := testServer(t, "lsm", ycfg.Keys)
	reads := ycsbMix{name: "A-reads", readPct: 100}
	if n := steadyStateAllocs(srv, ycsbGen(ycfg, reads, 1)); n != 0 {
		t.Errorf("ycsb-A lsm shape: %.2f allocs per call, want 0", n)
	}
}

// TestAppendKVSKeyFormat pins the two-digits-per-division formatter to
// the "user%014d" key format at every digit-count boundary.
func TestAppendKVSKeyFormat(t *testing.T) {
	var is []int
	for p := 1; p <= 1e13; p *= 10 {
		is = append(is, p-1, p, p+1, 3*p+7)
	}
	for i := 0; i < 1000; i++ {
		is = append(is, i, i*7919*104729)
	}
	for _, i := range is {
		want := fmt.Sprintf("user%014d", i)
		if got := appendKVSKey(nil, i); string(got) != want {
			t.Fatalf("appendKVSKey(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestNextKVSKey checks that k in-place increments of appendKVSKey(i)
// give appendKVSKey(i+k): key by key over 0..2^18 (the quick preload),
// at every carry up to 10^7-1, and across the widest carries.
func TestNextKVSKey(t *testing.T) {
	key := appendKVSKey(nil, 0)
	for i := 1; i <= 1<<18; i++ {
		nextKVSKey(key)
		if want := appendKVSKey(nil, i); !bytes.Equal(key, want) {
			t.Fatalf("after %d increments: %q, want %q", i, key, want)
		}
	}
	// Every carry below 10^7: check each multiple of ten as the walk
	// lands on it.
	key = appendKVSKey(key[:0], 0)
	var want []byte
	for i := 1; i < 1e7; i++ {
		nextKVSKey(key)
		if i%10 != 0 {
			continue
		}
		if want = appendKVSKey(want[:0], i); !bytes.Equal(key, want) {
			t.Fatalf("carry into %d: %q, want %q", i, key, want)
		}
	}
	for p := 10; p <= 1e13; p *= 10 {
		for _, k := range []int{1, 2, 11, 101} {
			key = appendKVSKey(key[:0], p-1)
			for j := 0; j < k; j++ {
				nextKVSKey(key)
			}
			if want = appendKVSKey(want[:0], p-1+k); !bytes.Equal(key, want) {
				t.Fatalf("%d + %d increments: %q, want %q", p-1, k, key, want)
			}
		}
	}
}
