package experiments

import (
	"fmt"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/runner"
	"rambda/internal/sim"
	"rambda/internal/smartnic"
)

// Fig1Row is one point of Fig. 1: SmartNIC request latency vs the
// percentage of accesses that go to host memory.
type Fig1Row struct {
	HostPct int
	Avg     sim.Time
	P99     sim.Time
}

// fig1Point measures one host-access percentage on a private SmartNIC
// and memory system.
func fig1Point(requests int, seed uint64, pct int) Fig1Row {
	space := memspace.New()
	space.Alloc("host-buf", 1<<20, memspace.KindDRAM)
	host := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("host:dram", 6, 128e9, 90*sim.Nanosecond),
		LLC:   memdev.NewLLC("host:llc", 300e9, 20*sim.Nanosecond),
	}
	nic := smartnic.New(smartnic.DefaultConfig("bf2"), host)
	rng := sim.NewRNG(seed + uint64(pct))
	hist := sim.NewHistogram(0)

	at := sim.Time(0)
	for r := 0; r < requests; r++ {
		start := at
		for i := 0; i < 100; i++ {
			if rng.Intn(100) < pct {
				at = nic.HostAccess(at, 64, 1)
			} else {
				at = nic.LocalAccess(at, 64)
			}
		}
		hist.Record(at - start)
	}
	return Fig1Row{HostPct: pct, Avg: hist.Mean(), P99: hist.P99()}
}

// fig1Plan enumerates the host-percentage sweep as runner jobs filling
// slot-indexed rows.
func fig1Plan(requests int, seed uint64) ([]Fig1Row, []runner.Job) {
	if requests <= 0 {
		requests = 20000
	}
	pcts := []int{0, 20, 40, 60, 80, 100}
	rows := make([]Fig1Row, len(pcts))
	jobs := runner.Jobs("fig1", len(pcts),
		func(i int) string { return fmt.Sprintf("host%%=%d", pcts[i]) },
		func(i int) { rows[i] = fig1Point(requests, seed, pcts[i]) })
	return rows, jobs
}

// Fig1 reproduces Fig. 1: requests of 100 back-to-back 64 B accesses on
// the BlueField-2's ARM cores, mixing on-board DRAM (load/store) and
// host DRAM (one-sided RDMA read over PCIe) at varying ratios.
func Fig1(requests int, seed uint64) []Fig1Row {
	rows, jobs := fig1Plan(requests, seed)
	runner.MustRun(0, jobs)
	return rows
}

func fig1Render(rows []Fig1Row) *Table {
	t := &Table{
		ID:      "fig1",
		Title:   "SmartNIC request latency vs host-memory access ratio (100x64B accesses/request)",
		Columns: []string{"host%", "avg", "p99"},
		Notes: []string{
			"paper: both average and p99 grow linearly with the host-access percentage",
		},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d%%", r.HostPct), r.Avg.String(), r.P99.String())
	}
	return t
}

// Fig1Spec exposes the sweep for a shared pool.
func Fig1Spec(requests int, seed uint64) Spec {
	rows, jobs := fig1Plan(requests, seed)
	return Spec{ID: "fig1", Jobs: jobs, Table: func() *Table { return fig1Render(rows) }}
}
