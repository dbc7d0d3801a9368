package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// The KVS serving harness: one RAMBDA KVS server (paper Sec. IV-A) over
// any kvs.Backend, the client side every KVS system shares, one preload
// loop, and one closed-loop driver. Figs. 8-10, Tab. III, breakdown and
// ycsb differ only in the backend, the server sizing, and the request
// generator they hand in.

// kvsAPUCycles is the APU's per-request processing (hash unit,
// (de)serializer, FSM transitions).
const kvsAPUCycles = 6

// kvsKeyDigits is the zero-padded decimal width of a KVS key index.
const kvsKeyDigits = 14

// digitPairs holds "00".."99", two ASCII digits per value.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendKVSKey appends key i ("user" + 14-digit zero-padded decimal,
// the paper's 18 B keys) onto dst — the allocation-free formatter the
// hot request loops use with a reusable buffer. It writes two digits
// per division.
func appendKVSKey(dst []byte, i int) []byte {
	dst = append(dst, "user00000000000000"...)
	d := dst[len(dst)-kvsKeyDigits:]
	for p := kvsKeyDigits; p > 0 && i > 0; p -= 2 {
		r := i % 100
		d[p-2], d[p-1] = digitPairs[2*r], digitPairs[2*r+1]
		i /= 100
	}
	return dst
}

// nextKVSKey advances a key formatted by appendKVSKey to the next index
// in place, so a sequential walk over keys 0..n-1 formats nothing.
func nextKVSKey(key []byte) {
	for p := len(key) - 1; p >= len(key)-kvsKeyDigits; p-- {
		if key[p] != '9' {
			key[p]++
			return
		}
		key[p] = '0'
	}
}

// preload inserts keys 0..keys-1, each holding a valueBytes value whose
// first eight bytes are the key's index.
func preload(be kvs.Backend, keys, valueBytes int) {
	val := make([]byte, valueBytes)
	key := appendKVSKey(nil, 0)
	var trace []kvs.Access
	for i := 0; i < keys; i++ {
		binary.LittleEndian.PutUint64(val, uint64(i))
		t, err := be.PutInto(trace[:0], key, val)
		if err != nil {
			panic(err)
		}
		trace = t
		nextKVSKey(key)
	}
}

// kvsConn is one client connection: core.Client (RAMBDA) and
// core.CPUClient (CPU baseline) both frame, send, and wait.
type kvsConn interface {
	Call(now sim.Time, payload []byte) ([]byte, sim.Time)
}

// kvsClients is the client side shared by the RAMBDA and CPU servers:
// request encode, call on a connection, and response decode by request
// shape. Its buffers are reused per call (one goroutine drives a
// system), so the returned Response.Val is only valid until the next
// call.
type kvsClients struct {
	conns  []kvsConn
	reqBuf []byte
	pairs  []kvs.ScanPair
}

// callOn routes to connection id (mod the connection count).
func (c *kvsClients) callOn(id int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time) {
	c.reqBuf = kvs.AppendRequest(c.reqBuf[:0], req)
	respB, done := c.conns[id%len(c.conns)].Call(now, c.reqBuf)
	if req.Op == kvs.OpScan {
		status, _, pairs, err := kvs.DecodeScanResponse(respB, c.pairs[:0])
		c.pairs = pairs
		if err != nil {
			panic(fmt.Sprintf("kvs client: scan response: %v", err))
		}
		return kvs.Response{Status: status}, done
	}
	resp, err := kvs.DecodeResponse(respB)
	if err != nil {
		panic(fmt.Sprintf("kvs client: response: %v", err))
	}
	return resp, done
}

// kvsServeOpts is what the experiments vary about a RAMBDA KVS server.
type kvsServeOpts struct {
	Variant core.AccelVariant
	// WithNVM adds the server's Optane DIMMs (the LSM backend's runs).
	WithNVM     bool
	Connections int
	RingEntries int
	// EntryBytes bounds one ring entry: the largest request or
	// response frame.
	EntryBytes    int
	ResponseBatch int
	// Trace and Metrics attach a collector; nil is the uninstrumented
	// fast path.
	Trace   *obs.Trace
	Metrics *obs.Registry
}

// kvsServer is the RAMBDA KVS: remote clients over RDMA into ring
// buffers the APU serves. Its handler decodes the request, applies it to
// the backend, charges the access trace through the coherent datapath,
// drains an LSM backend's background work, and replies.
type kvsServer struct {
	kvsClients

	// Server-side request-path scratch (each sweep point drives its
	// system from one goroutine).
	sc      kvs.Scratch
	respBuf []byte
}

// newKVSServer builds the server/client machine pair, fills the backend
// with load on the server machine, and connects one client per ring.
// load registers any backend metrics itself, before the server's own.
func newKVSServer(o kvsServeOpts, load func(*core.Machine) kvs.Backend) *kvsServer {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Variant: o.Variant, WithNVM: o.WithNVM})
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	be := load(sm)
	// An LSM tree's flush/compaction streams into NVM after each
	// request; a WAL-wrap flush stalls the request until durable.
	db, _ := be.(*lsm.DB)
	s := &kvsServer{}

	app := core.AppFunc(func(ctx *core.AppCtx, now sim.Time, reqBytes []byte) ([]byte, sim.Time) {
		t := ctx.Compute(now, kvsAPUCycles)
		req, err := kvs.DecodeRequest(reqBytes)
		if err != nil {
			s.respBuf = kvs.AppendResponse(s.respBuf[:0], kvs.Response{Status: kvs.StatusError})
			return s.respBuf, t
		}
		resp, trace := kvs.ApplyScratch(be, req, &s.sc)
		for _, a := range trace {
			if a.Write {
				// The backend already placed the bytes; charge the
				// write with them so it leaves the item intact.
				t = ctx.Write(t, a.Addr, sm.Space.Slice(a.Addr, a.Bytes))
			} else {
				t = ctx.Read(t, a.Addr, a.Bytes)
			}
		}
		if db != nil {
			if end, stalled := db.Maintain(t); stalled {
				t = end
			}
		}
		if req.Op == kvs.OpScan {
			s.respBuf = kvs.AppendScanResponse(s.respBuf[:0], resp.Status, s.sc.ScanBuf, s.sc.ScanPairs)
		} else {
			s.respBuf = kvs.AppendResponse(s.respBuf[:0], resp)
		}
		return s.respBuf, t
	})

	opts := core.DefaultServerOptions()
	opts.Connections = o.Connections
	opts.RingEntries = o.RingEntries
	opts.EntryBytes = o.EntryBytes
	opts.ResponseBatch = o.ResponseBatch
	opts.Trace = o.Trace
	opts.Metrics = o.Metrics
	srv := core.NewServer(sm, app, opts)
	for i := 0; i < o.Connections; i++ {
		s.conns = append(s.conns, core.ConnectClient(cm, srv, i))
	}
	return s
}

// hashStore is a MICA-style store on space sized for keys index
// entries and poolItems items.
func hashStore(space *memspace.Space, kind memspace.Kind, keys, poolItems int) *kvs.Store {
	return kvs.New(space, kvs.Config{
		Buckets:   keys / 4,
		PoolBytes: uint64(poolItems) * 160,
		Kind:      kind,
	})
}

// kvsCaller is one KVS system under test.
type kvsCaller interface {
	callOn(id int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time)
}

// kvsWork is one generated request. Generators write its key/value
// into its own buffers and rewrite every field the op reads, so one
// value per point serves every request, each valid until the next
// generator call.
type kvsWork struct {
	op  kvs.Op
	key []byte
	val []byte
	// limit and reverse apply to OpScan only.
	limit   int
	reverse bool
}

func (wk *kvsWork) request() kvs.Request {
	req := kvs.Request{Op: wk.op, Key: wk.key}
	switch wk.op {
	case kvs.OpPut:
		req.Val = wk.val
	case kvs.OpScan:
		req.ScanLimit, req.Reverse = wk.limit, wk.reverse
	}
	return req
}

// measureKVS drives sys closed loop: clients outstanding requests
// (connections × per-connection window), requests in total, gen filling
// each request in issue order.
func measureKVS(sys kvsCaller, clients, requests int, seed uint64, gen func(*kvsWork)) *sim.Result {
	perClient := requests / clients
	if perClient < 1 {
		perClient = 1
	}
	var wk kvsWork
	return sim.ClosedLoop{
		Clients: clients, PerClient: perClient, Warmup: 2,
		Stagger: 40 * sim.Nanosecond, Jitter: 400 * sim.Nanosecond, JitterSeed: seed,
	}.Run(func(id int, issue sim.Time) sim.Time {
		gen(&wk)
		resp, done := sys.callOn(id, issue, wk.request())
		if resp.Status == kvs.StatusError {
			panic("kvs experiment: server error")
		}
		return done
	})
}
