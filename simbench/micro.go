package main

import (
	"flag"
	"testing"

	"rambda/internal/core"
	"rambda/internal/dlrm"
	"rambda/internal/interconnect"
	"rambda/internal/kvs"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// microKernel times one request-path call in isolation. setup builds
// the kernel's state and returns a loop running the call n times;
// testing.Benchmark times the loop, as cmd/rambda-bench does its kernels.
type microKernel struct {
	name  string
	setup func() func(n int)
}

// microKernels are the request-path layers without a kernel in
// cmd/rambda-bench.
var microKernels = []microKernel{
	{"KVSGetInto", func() func(int) {
		s, keys := microStore()
		var val []byte
		var trace []kvs.Access
		return func(n int) {
			for i := 0; i < n; i++ {
				var ok bool
				val, trace, ok = s.GetInto(val[:0], trace[:0], keys.key(i))
				if !ok {
					panic("simbench: micro KVSGetInto: preloaded key missing")
				}
			}
		}
	}},
	{"KVSPutInto", func() func(int) {
		s, keys := microStore()
		val := make([]byte, valueBytes)
		var trace []kvs.Access
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				if trace, err = s.PutInto(trace[:0], keys.key(i), val); err != nil {
					panic("simbench: micro KVSPutInto: " + err.Error())
				}
			}
		}
	}},
	{"MemspaceRegion", func() func(int) {
		space := memspace.New()
		for i := 0; i < 256; i++ {
			space.Alloc("r", 4096, memspace.KindDRAM)
		}
		rng := sim.NewRNG(1)
		addrs := make([]memspace.Addr, 1024)
		for i := range addrs {
			addrs[i] = 4096 + memspace.Addr(rng.Intn(256*4096))
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				if space.Region(addrs[i%len(addrs)]) == nil {
					panic("simbench: micro MemspaceRegion: unmapped address")
				}
			}
		}
	}},
	{"DLRMInferInto", func() func(int) {
		cat := dlrm.AmazonCategories[0]
		cat.Rows /= 20
		space := memspace.New()
		ds := dlrm.NewDataset(cat, 1)
		rng := sim.NewRNG(4)
		table := dlrm.NewTable(space, "emb", cat.Rows, 64, memspace.KindDRAM, rng)
		memo := dlrm.BuildMemo(space, "memo", table, ds.Bundles, cat.Rows/4, memspace.KindDRAM, rng)
		m := dlrm.NewModel(table, memo, dlrm.NewMLP(64, 32, rng), ds.Bundles)
		queries := make([]dlrm.Query, 1024)
		for i := range queries {
			queries[i] = ds.NextQuery()
		}
		var sc dlrm.InferScratch
		return func(n int) {
			for i := 0; i < n; i++ {
				m.InferInto(queries[i%len(queries)], dlrm.AggSum, &sc)
			}
		}
	}},
	{"NetLinkSend", func() func(int) {
		l := interconnect.NewNetLink("micro", core.NetBW, core.NetOneWay)
		var now sim.Time
		return func(n int) {
			for i := 0; i < n; i++ {
				now += 100 * sim.Nanosecond
				l.Send(now, 64)
			}
		}
	}},
	{"AccelReadDataWave", func() func(int) {
		m := core.NewMachine(core.MachineConfig{Name: "micro", Variant: core.AccelLH, AccelLocalBytes: 1 << 20})
		base := m.LocalRegion().Base
		addrs := make([]memspace.Addr, waveWidth)
		for i := range addrs {
			addrs[i] = base + memspace.Addr(i*4096)
		}
		var now sim.Time
		return func(n int) {
			for i := 0; i < n; i++ {
				now += sim.Microsecond
				m.Accel.ReadDataWave(now, addrs, 256)
			}
		}
	}},
}

// microKeys is a flat table of 2^18 preloaded keys, visited in a
// scattered order so consecutive operations hit different buckets.
type microKeys []byte

const microKeyCount = 1 << 18

func (k microKeys) key(i int) []byte {
	j := (i * 7919) % microKeyCount
	return k[j*18 : j*18+18]
}

func microStore() (*kvs.Store, microKeys) {
	s := kvs.New(memspace.New(), kvs.Config{Buckets: microKeyCount / 4, PoolBytes: microKeyCount * 160})
	keys := make(microKeys, 0, microKeyCount*18)
	val := make([]byte, valueBytes)
	var trace []kvs.Access
	for i := 0; i < microKeyCount; i++ {
		keys = appendKey(keys, i)
		encodeValue(val, i, 0)
		var err error
		if trace, err = s.PutInto(trace[:0], keys[i*18:i*18+18], val); err != nil {
			panic("simbench: micro preload: " + err.Error())
		}
	}
	return s, keys
}

// setMicroBenchtime sets the time testing.Benchmark gives each kernel.
// Its default of one second would add six seconds to a traced run.
func setMicroBenchtime() {
	testing.Init()
	if err := flag.Set("test.benchtime", "200ms"); err != nil {
		panic(err)
	}
}
