// kvcache: a read-through in-memory key-value store on RAMBDA,
// exercising the paper's KVS design (Sec. IV-A) under a skewed YCSB-C
// style workload.
//
// The example compares the RAMBDA accelerator against the CPU baseline
// on the same store contents, printing throughput and latency for both
// — a miniature of the paper's Fig. 8/9.
//
// Run with:
//
//	go run ./examples/kvcache
package main

import (
	"fmt"

	"rambda"
	"rambda/internal/hostcpu"
	"rambda/internal/kvs"
)

const (
	keys        = 100_000
	connections = 4
	window      = 32
	requests    = 30_000
)

func key(i int) []byte { return []byte(fmt.Sprintf("item-%08d", i)) }

// buildStore preloads a MICA-style store in the machine's data memory.
func buildStore(m *rambda.Machine) *kvs.Store {
	store := kvs.New(m.Space, kvs.Config{
		Buckets:   keys / 4,
		PoolBytes: keys * 192,
		Kind:      m.DataKind(),
	})
	var trace []kvs.Access // reused across the preload loop
	for i := 0; i < keys; i++ {
		var err error
		if trace, err = store.PutInto(trace[:0], key(i), []byte(fmt.Sprintf("value-of-%d", i))); err != nil {
			panic(err)
		}
	}
	return store
}

func workload(seed uint64) func() kvs.Request {
	rng := rambda.NewRNG(seed)
	return func() kvs.Request {
		k := int(rng.Uint64n(keys))
		if rng.Intn(10) == 0 { // 10% writes
			return kvs.Request{Op: kvs.OpPut, Key: key(k), Val: []byte("updated!")}
		}
		return kvs.Request{Op: kvs.OpGet, Key: key(k)}
	}
}

func runRambda() *rambda.Result {
	server := rambda.NewMachine(rambda.MachineConfig{Name: "server", Variant: rambda.Prototype})
	client := rambda.NewMachine(rambda.MachineConfig{Name: "client"})
	rambda.Connect(server, client)
	store := buildStore(server)

	// Per-server request-path scratch: the store's value/trace buffers
	// and the response encode buffer. The server handles one request at
	// a time, so reuse is safe; the returned frame is consumed by the
	// transport before the next call.
	var (
		sc      kvs.Scratch
		respBuf []byte
	)
	app := rambda.AppFunc(func(ctx *rambda.AppCtx, now rambda.Time, reqB []byte) ([]byte, rambda.Time) {
		t := ctx.Compute(now, 6) // hash unit
		req, err := kvs.DecodeRequest(reqB)
		if err != nil {
			respBuf = kvs.AppendResponse(respBuf[:0], kvs.Response{Status: kvs.StatusError})
			return respBuf, t
		}
		resp, trace := kvs.ApplyScratch(store, req, &sc)
		for _, a := range trace {
			if a.Write {
				// The store already placed the bytes; charge the write
				// with them so it leaves the item intact.
				t = ctx.Write(t, a.Addr, server.Space.Slice(a.Addr, a.Bytes))
			} else {
				t = ctx.Read(t, a.Addr, a.Bytes)
			}
		}
		respBuf = kvs.AppendResponse(respBuf[:0], resp)
		return respBuf, t
	})
	opts := rambda.DefaultServerOptions()
	opts.Connections = connections
	srv := rambda.NewServer(server, app, opts)
	conns := make([]*rambda.Client, connections)
	for i := range conns {
		conns[i] = rambda.Dial(client, srv, i)
	}

	next := workload(42)
	var reqBuf []byte // reused: Call consumes the frame before returning
	return rambda.ClosedLoop{
		Clients: connections * window, PerClient: requests / (connections * window),
		Warmup: 2, Stagger: 40 * rambda.Nanosecond,
	}.Run(func(id int, issue rambda.Time) rambda.Time {
		reqBuf = kvs.AppendRequest(reqBuf[:0], next())
		_, done := conns[id%connections].Call(issue, reqBuf)
		return done
	})
}

func runCPU() *rambda.Result {
	server := rambda.NewMachine(rambda.MachineConfig{Name: "server"})
	client := rambda.NewMachine(rambda.MachineConfig{Name: "client"})
	rambda.Connect(server, client)
	store := buildStore(server)

	// Same per-server scratch discipline as the RAMBDA path.
	var (
		sc      kvs.Scratch
		respBuf []byte
	)
	h := rambda.CPUHandler(func(reqB []byte) ([]byte, hostcpu.Work) {
		work := hostcpu.Work{Cycles: 900, AccessBytes: 64, Addr: store.IndexRange().Base}
		req, err := kvs.DecodeRequest(reqB)
		if err != nil {
			respBuf = kvs.AppendResponse(respBuf[:0], kvs.Response{Status: kvs.StatusError})
			return respBuf, work
		}
		resp, trace := kvs.ApplyScratch(store, req, &sc)
		work.Accesses = len(trace)
		respBuf = kvs.AppendResponse(respBuf[:0], resp)
		return respBuf, work
	})
	opts := rambda.DefaultCPUServerOptions()
	opts.Connections = connections
	srv := rambda.NewCPUServer(server, h, opts)
	conns := make([]*rambda.CPUClient, connections)
	for i := range conns {
		conns[i] = rambda.DialCPU(client, srv, i)
	}

	next := workload(42)
	var reqBuf []byte // reused: Call consumes the frame before returning
	return rambda.ClosedLoop{
		Clients: connections * window, PerClient: requests / (connections * window),
		Warmup: 2, Stagger: 40 * rambda.Nanosecond,
	}.Run(func(id int, issue rambda.Time) rambda.Time {
		reqBuf = kvs.AppendRequest(reqBuf[:0], next())
		_, done := conns[id%connections].Call(issue, reqBuf)
		return done
	})
}

func main() {
	r := runRambda()
	c := runCPU()
	fmt.Printf("%-8s  %-12s  %-10s  %-10s\n", "system", "throughput", "avg", "p99")
	fmt.Printf("%-8s  %9.2f Mops  %-10v  %-10v\n", "RAMBDA", r.Throughput/1e6, r.Latency.Mean(), r.Latency.P99())
	fmt.Printf("%-8s  %9.2f Mops  %-10v  %-10v\n", "CPU", c.Throughput/1e6, c.Latency.Mean(), c.Latency.P99())
	fmt.Println()
	fmt.Println("note: at this moderate load both systems are below their peaks and")
	fmt.Println("RAMBDA's average latency sits slightly above the CPU's — its data")
	fmt.Println("accesses cross the UPI link (paper Sec. VI-B). Run cmd/rambda-figures")
	fmt.Println("for the saturated Fig. 8 comparison where RAMBDA comes out ahead.")
}
