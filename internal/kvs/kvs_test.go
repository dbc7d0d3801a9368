package kvs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"rambda/internal/memspace"
)

func newStore(buckets int, pool uint64) *Store {
	return New(memspace.New(), Config{Buckets: buckets, PoolBytes: pool, Kind: memspace.KindDRAM})
}

func TestPutGetDelete(t *testing.T) {
	s := newStore(1024, 1<<20)
	if _, err := s.PutInto(nil, []byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	val, _, ok := s.GetInto(nil, nil, []byte("alpha"))
	if !ok || string(val) != "one" {
		t.Fatalf("get=%q ok=%v", val, ok)
	}
	if _, _, ok := s.GetInto(nil, nil, []byte("beta")); ok {
		t.Fatal("phantom key")
	}
	if _, ok := s.DeleteInto(nil, []byte("alpha")); !ok {
		t.Fatal("delete failed")
	}
	if _, _, ok := s.GetInto(nil, nil, []byte("alpha")); ok {
		t.Fatal("deleted key still present")
	}
	if _, ok := s.DeleteInto(nil, []byte("alpha")); ok {
		t.Fatal("double delete")
	}
	st := s.Stats()
	if st.Gets != 3 || st.Puts != 1 || st.Deletes != 2 || st.LiveItems != 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestUpdateInPlace(t *testing.T) {
	s := newStore(64, 1<<20)
	s.PutInto(nil, []byte("k"), []byte("v1"))
	s.PutInto(nil, []byte("k"), []byte("v2"))
	val, _, _ := s.GetInto(nil, nil, []byte("k"))
	if string(val) != "v2" {
		t.Fatalf("val=%q", val)
	}
	if s.Stats().LiveItems != 1 {
		t.Fatalf("live=%d, duplicate insert?", s.Stats().LiveItems)
	}
	// Growing past the size class reallocates but stays one item.
	s.PutInto(nil, []byte("k"), make([]byte, 300))
	if s.Stats().LiveItems != 1 {
		t.Fatalf("live=%d after class change", s.Stats().LiveItems)
	}
	val, _, _ = s.GetInto(nil, nil, []byte("k"))
	if len(val) != 300 {
		t.Fatalf("len=%d", len(val))
	}
}

// TestFailedResizeKeepsKey fills a four-block pool, then grows one
// item past its size class. The allocation fails, and the key must
// stay on its old block: still live, still readable, and not handed to
// the next insert.
func TestFailedResizeKeepsKey(t *testing.T) {
	s := newStore(64, 4*minClass)
	for i := 0; i < 4; i++ {
		if _, err := s.PutInto(nil, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.PutInto(nil, []byte("k0"), make([]byte, 100)); err == nil {
		t.Fatal("resize into a full pool succeeded")
	}
	if live := s.Stats().LiveItems; live != 4 {
		t.Fatalf("LiveItems = %d after the failed resize, want 4", live)
	}
	if _, err := s.PutInto(nil, []byte("k9"), []byte("w")); err == nil {
		t.Fatal("insert into a full pool succeeded")
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		if val, _, ok := s.GetInto(nil, nil, []byte(key)); !ok || string(val) != "v" {
			t.Fatalf("GET %s = %q, %v; want \"v\"", key, val, ok)
		}
	}
}

func TestAccessTraceCounts(t *testing.T) {
	// The paper's cost model: ~3 accesses per GET, ~4 per PUT (without
	// collisions).
	s := newStore(1<<16, 1<<20)
	key, val := []byte("key-000001"), make([]byte, 40)
	trace, err := s.PutInto(nil, key, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 4 {
		t.Fatalf("PUT trace=%d accesses, want 4: %+v", len(trace), trace)
	}
	v, trace, ok := s.GetInto(nil, nil, key)
	if !ok || len(v) != 40 {
		t.Fatal("get")
	}
	if len(trace) != 3 {
		t.Fatalf("GET trace=%d accesses, want 3: %+v", len(trace), trace)
	}
	// First access is the bucket (read), last is the value (read).
	if trace[0].Write || trace[0].Bytes != 64 {
		t.Fatalf("bucket access %+v", trace[0])
	}
}

func TestChainingUnderCollisions(t *testing.T) {
	// One bucket: every key collides; >7 keys must chain.
	s := newStore(1, 1<<20)
	for i := 0; i < 30; i++ {
		if _, err := s.PutInto(nil, []byte(fmt.Sprintf("key-%02d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().ChainedBuckets < 3 {
		t.Fatalf("chained=%d, want >= 3", s.Stats().ChainedBuckets)
	}
	for i := 0; i < 30; i++ {
		v, _, ok := s.GetInto(nil, nil, []byte(fmt.Sprintf("key-%02d", i)))
		if !ok || v[0] != byte(i) {
			t.Fatalf("key %d lost in chain", i)
		}
	}
	// Update through the chain must not duplicate.
	live := s.Stats().LiveItems
	s.PutInto(nil, []byte("key-29"), []byte{99})
	if s.Stats().LiveItems != live {
		t.Fatal("chained update created a duplicate")
	}
}

func TestPoolExhaustion(t *testing.T) {
	s := newStore(16, 1024)
	var failed bool
	for i := 0; i < 100; i++ {
		if _, err := s.PutInto(nil, []byte(fmt.Sprintf("key-%03d", i)), make([]byte, 64)); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("pool exhaustion not reported")
	}
}

func TestSlabReuse(t *testing.T) {
	s := newStore(64, 4096)
	// Fill, delete, refill repeatedly: free-list reuse must prevent
	// exhaustion.
	for round := 0; round < 50; round++ {
		for i := 0; i < 8; i++ {
			if _, err := s.PutInto(nil, []byte(fmt.Sprintf("k%d", i)), make([]byte, 40)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		for i := 0; i < 8; i++ {
			s.DeleteInto(nil, []byte(fmt.Sprintf("k%d", i)))
		}
	}
	if s.Stats().LiveItems != 0 {
		t.Fatal("leak")
	}
}

func TestStoreModelProperty(t *testing.T) {
	// The store must behave exactly like a map under random ops.
	type op struct {
		Op  uint8
		Key uint8
		Val uint16
	}
	f := func(ops []op) bool {
		s := newStore(16, 1<<20)
		model := map[string]string{}
		for _, o := range ops {
			key := []byte(fmt.Sprintf("key-%d", o.Key%32))
			switch o.Op % 3 {
			case 0:
				val := []byte(fmt.Sprintf("val-%d", o.Val))
				if _, err := s.PutInto(nil, key, val); err != nil {
					return false
				}
				model[string(key)] = string(val)
			case 1:
				got, _, ok := s.GetInto(nil, nil, key)
				want, wantOK := model[string(key)]
				if ok != wantOK || (ok && string(got) != want) {
					return false
				}
			case 2:
				_, ok := s.DeleteInto(nil, key)
				_, wantOK := model[string(key)]
				if ok != wantOK {
					return false
				}
				delete(model, string(key))
			}
		}
		if int64(len(model)) != s.Stats().LiveItems {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("k")},
		{Op: OpPut, Key: []byte("key"), Val: []byte("value")},
		{Op: OpDelete, Key: []byte("gone")},
	}
	for _, r := range reqs {
		got, err := DecodeRequest(AppendRequest(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != r.Op || !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Val, r.Val) {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
	resp := Response{Status: StatusOK, Val: []byte("data")}
	got, err := DecodeResponse(AppendResponse(nil, resp))
	if err != nil || got.Status != StatusOK || !bytes.Equal(got.Val, resp.Val) {
		t.Fatalf("response round trip: %+v %v", got, err)
	}
}

func TestWireErrors(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := DecodeRequest([]byte{99, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad opcode accepted")
	}
	bad := AppendRequest(nil, Request{Op: OpPut, Key: []byte("k"), Val: []byte("v")})
	if _, err := DecodeRequest(bad[:8]); err == nil {
		t.Fatal("truncated request accepted")
	}
	if _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
}

func TestApply(t *testing.T) {
	s := newStore(64, 1<<20)
	var sc Scratch
	resp, trace := ApplyScratch(s, Request{Op: OpPut, Key: []byte("k"), Val: []byte("v")}, &sc)
	if resp.Status != StatusOK || len(trace) == 0 {
		t.Fatal("put via ApplyScratch")
	}
	resp, _ = ApplyScratch(s, Request{Op: OpGet, Key: []byte("k")}, &sc)
	if resp.Status != StatusOK || string(resp.Val) != "v" {
		t.Fatalf("get via ApplyScratch: %+v", resp)
	}
	resp, _ = ApplyScratch(s, Request{Op: OpGet, Key: []byte("nope")}, &sc)
	if resp.Status != StatusNotFound {
		t.Fatal("missing key status")
	}
	resp, _ = ApplyScratch(s, Request{Op: Op(77)}, &sc)
	if resp.Status != StatusError {
		t.Fatal("bad op status")
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{1: 64, 64: 64, 65: 128, 1000: 1024, 64 << 10: 64 << 10}
	for in, want := range cases {
		got, err := classFor(in)
		if err != nil || got != want {
			t.Fatalf("classFor(%d)=%d,%v want %d", in, got, err, want)
		}
	}
	if _, err := classFor(0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := classFor(maxClass + 1); err == nil {
		t.Fatal("oversize accepted")
	}
}

func TestBenchKernelsSmoke(t *testing.T) {
	if got := BenchPreload(benchKeys + 10); got != benchKeys+10 {
		t.Fatalf("BenchPreload checksum %d, want one put per op", got)
	}
	if BenchGetHit(1000) < 3*1000 {
		t.Fatal("BenchGetHit traced fewer than three accesses per GET")
	}
}
