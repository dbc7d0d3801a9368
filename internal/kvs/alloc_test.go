package kvs

import (
	"fmt"
	"testing"

	"rambda/internal/memspace"
)

// Steady-state allocation guards for the hot request path: once scratch
// buffers have grown to the workload's high-water mark, the append
// codecs and the scratch-based store operations must not allocate at
// all. These lock in the zero-allocation invariant cmd/rambda-bench
// measures end to end.

func TestAppendCodecsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	req := Request{Op: OpPut, Key: []byte("user00000000000001"), Val: make([]byte, 46)}
	resp := Response{Status: StatusOK, Val: make([]byte, 46)}
	var reqBuf, respBuf []byte
	reqBuf = AppendRequest(reqBuf, req) // grow once
	respBuf = AppendResponse(respBuf, resp)
	n := testing.AllocsPerRun(200, func() {
		reqBuf = AppendRequest(reqBuf[:0], req)
		respBuf = AppendResponse(respBuf[:0], resp)
	})
	if n != 0 {
		t.Fatalf("append codecs: %.2f allocs/op in steady state, want 0", n)
	}
}

func TestScratchOpsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	space := memspace.New()
	s := New(space, Config{Buckets: 64, PoolBytes: 1 << 16, Kind: memspace.KindDRAM})
	val := make([]byte, 46)
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%014d", i))
		if _, err := s.PutInto(nil, keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	var sc Scratch
	steady := func() {
		for _, k := range keys {
			resp, _ := ApplyScratch(s, Request{Op: OpGet, Key: k}, &sc)
			if resp.Status != StatusOK {
				panic("missing key")
			}
		}
		// Same-size overwrite: the steady-state PUT of the mixed workload.
		if resp, _ := ApplyScratch(s, Request{Op: OpPut, Key: keys[0], Val: val}, &sc); resp.Status != StatusOK {
			panic("put failed")
		}
	}
	steady() // grow sc to the high-water mark
	if n := testing.AllocsPerRun(100, steady); n != 0 {
		t.Fatalf("scratch Get/Put: %.2f allocs/op in steady state, want 0", n)
	}
}

// TestBenchCheckoutRollbackSteadyStateZeroAlloc guards the
// KVSCheckoutRollback kernel's claim: a warmed checkpointed store
// journals, reallocates and rolls back without allocating, so the
// kernel's allocs/op stays 0 for any op count past the warm-up.
func TestBenchCheckoutRollbackSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	const ops = 4000
	warm := testing.AllocsPerRun(1, func() { BenchCheckoutRollback(1) })
	long := testing.AllocsPerRun(1, func() { BenchCheckoutRollback(ops) })
	if long > warm {
		t.Fatalf("%d ops allocate %.0f times, 1 op %.0f: rounds past warm-up allocate", ops, long, warm)
	}
}
