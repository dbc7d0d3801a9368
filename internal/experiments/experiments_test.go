package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"rambda/internal/core"
	"rambda/internal/dlrm"
)

// The experiment tests assert the paper's qualitative shapes at reduced
// scale; EXPERIMENTS.md records the full-scale quantitative comparison.

func testFig7Config() Fig7Config {
	return Fig7Config{Nodes: 1 << 16, Requests: 12000, Window: 16, Seed: 7}
}

func testKVSConfig() KVSConfig {
	cfg := DefaultKVSConfig()
	cfg.Keys = 1 << 16
	cfg.Requests = 8000
	return cfg
}

func fig7Map(t *testing.T, rows []Fig7Row) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, r := range rows {
		m[r.Mem+"/"+r.Config] = r.Throughput
	}
	return m
}

func TestFig1LatencyGrowsLinearly(t *testing.T) {
	rows := Fig1(2000, 1)
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Avg <= rows[i-1].Avg {
			t.Fatalf("avg latency must increase with host%%: %+v", rows)
		}
		if rows[i].P99 < rows[i].Avg {
			t.Fatalf("p99 below avg at %d%%", rows[i].HostPct)
		}
	}
	// All-host is many times all-local (Fig. 1's ~15x span).
	if ratio := float64(rows[5].Avg) / float64(rows[0].Avg); ratio < 8 {
		t.Fatalf("100%%/0%% ratio=%.1f, want >= 8", ratio)
	}
	// Linearity: the midpoint is near the endpoint average.
	mid := (rows[0].Avg + rows[5].Avg) / 2
	if rows[2].Avg < mid*7/10 || rows[3].Avg > mid*14/10 {
		t.Fatalf("latency not linear: %+v", rows)
	}
}

func TestFig5OnlyDoubleOffHitsMemory(t *testing.T) {
	rows := Fig5()
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if !r.DDIO && !r.TPH {
			if r.WriteGBs < 3.0 || r.ReadGBs < 3.0 {
				t.Fatalf("off/off must consume ~3.5 GB/s: %+v", r)
			}
			continue
		}
		if r.WriteGBs > 0.5 || r.ReadGBs > 0.5 {
			t.Fatalf("cache-steered config leaks memory bandwidth: %+v", r)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	m := fig7Map(t, Fig7(testFig7Config()))

	cpu1, cpu8, cpu16 := m["dram/CPU-1"], m["dram/CPU-8"], m["dram/CPU-16"]
	if cpu8 < 6*cpu1 || cpu8 > 10*cpu1 {
		t.Fatalf("CPU-8/CPU-1 = %.2f, want ~8 (linear scaling)", cpu8/cpu1)
	}
	if cpu16 < 13*cpu1 {
		t.Fatalf("CPU-16/CPU-1 = %.2f, want ~16", cpu16/cpu1)
	}

	polling, cpoll := m["dram/RAMBDA-polling"], m["dram/RAMBDA"]
	if cpoll <= polling {
		t.Fatal("cpoll must beat spin-polling (Fig. 7's +21.6%)")
	}
	if g := cpoll / polling; g > 1.5 {
		t.Fatalf("cpoll gain %.2f implausibly high", g)
	}
	// RAMBDA-polling lands in the multi-core CPU range (paper: ~8 cores).
	if polling < 5*cpu1 || polling > 13*cpu1 {
		t.Fatalf("polling = %.1f cores-equivalent, want ~8", polling/cpu1)
	}

	ld, lh := m["dram/RAMBDA-LD"], m["dram/RAMBDA-LH"]
	if ld <= cpoll || lh <= ld {
		t.Fatalf("want LH (%v) > LD (%v) > cpoll (%v)", lh, ld, cpoll)
	}
	if lh > 4*cpoll {
		t.Fatalf("LH gain %.2f implausibly high", lh/cpoll)
	}

	// NVM: adaptive DDIO beats always-on DDIO by a modest margin.
	ddio, adaptive := m["nvm/RAMBDA-DDIO"], m["nvm/RAMBDA"]
	if adaptive <= ddio {
		t.Fatal("adaptive DDIO must beat DDIO-on for NVM rings")
	}
	if g := adaptive / ddio; g > 1.5 {
		t.Fatalf("adaptive gain %.2f implausibly high", g)
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := testKVSConfig()
	rows := Fig8(cfg)
	m := map[string]float64{}
	for _, r := range rows {
		m[r.System+"/"+r.Dist+"/"+r.Workload] = r.Throughput
	}

	cpu, rambda := m["CPU/uniform/get"], m["RAMBDA/uniform/get"]
	if rambda <= cpu {
		t.Fatalf("RAMBDA (%v) must edge out CPU (%v) at the network bound", rambda, cpu)
	}
	if rambda > 1.25*cpu {
		t.Fatalf("RAMBDA/CPU = %.2f, want a small gap (paper 2.3-8.3%%)", rambda/cpu)
	}
	// Distribution must not matter for CPU and RAMBDA.
	if z := m["RAMBDA/zipf/get"]; z < 0.9*rambda || z > 1.1*rambda {
		t.Fatal("RAMBDA must be distribution-insensitive")
	}
	// SmartNIC: uniform far below zipf, both far below CPU.
	su, sz := m["SmartNIC/uniform/get"], m["SmartNIC/zipf/get"]
	if su >= 0.75*sz {
		t.Fatalf("SmartNIC uniform (%v) must trail zipf (%v)", su, sz)
	}
	if sz >= cpu {
		t.Fatal("SmartNIC must trail CPU")
	}
	// LD/LH match base RAMBDA (all network-bound).
	if ld := m["RAMBDA-LD/uniform/get"]; ld < 0.9*rambda || ld > 1.1*rambda {
		t.Fatal("RAMBDA-LD should match base at the network bound")
	}
}

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows := Fig9(testKVSConfig())
	m := map[string]Fig9Row{}
	for _, r := range rows {
		m[r.System+"/"+r.Dist] = r
	}
	cpu, rambda, snic := m["CPU/uniform"], m["RAMBDA/uniform"], m["SmartNIC/uniform"]
	if rambda.P99 >= cpu.P99 {
		t.Fatalf("RAMBDA p99 (%v) must undercut CPU (%v)", rambda.P99, cpu.P99)
	}
	if rambda.P99 >= snic.P99 {
		t.Fatalf("RAMBDA p99 (%v) must undercut SmartNIC (%v)", rambda.P99, snic.P99)
	}
	// LD average sits below base RAMBDA (no UPI on the data path); its
	// tail is inapplicable.
	ld := m["RAMBDA-LD/uniform"]
	if ld.Avg >= rambda.Avg {
		t.Fatalf("LD avg (%v) must undercut base (%v)", ld.Avg, rambda.Avg)
	}
	if ld.P99 != 0 {
		t.Fatal("LD tail must be inapplicable")
	}
}

func TestFig10BatchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := testKVSConfig()
	cfg.Requests = 6000
	rows := Fig10(cfg)
	first := map[string]Fig10Row{}
	last := map[string]Fig10Row{}
	for _, r := range rows {
		if r.Batch == 1 {
			first[r.System] = r
		}
		if r.Batch == 32 {
			last[r.System] = r
		}
	}
	for _, sys := range []string{"CPU", "SmartNIC", "RAMBDA"} {
		if last[sys].Throughput <= first[sys].Throughput {
			t.Fatalf("%s: batching must raise throughput", sys)
		}
	}
	cpuGain := last["CPU"].Throughput / first["CPU"].Throughput
	rambdaGain := last["RAMBDA"].Throughput / first["RAMBDA"].Throughput
	if rambdaGain >= cpuGain {
		t.Fatalf("RAMBDA gains less from batching than CPU (paper ~2x vs ~12x): %.1f vs %.1f",
			rambdaGain, cpuGain)
	}
	// RAMBDA latency grows sub-linearly with batch.
	if last["RAMBDA"].Avg >= 16*first["RAMBDA"].Avg {
		t.Fatal("RAMBDA latency must grow sub-linearly with batch")
	}
	// RAMBDA saturates by batch 4: from there to batch 32 its throughput
	// and latency stay flat, within 1% (EXPERIMENTS.md, Fig. 10).
	var at4 Fig10Row
	for _, r := range rows {
		if r.System == "RAMBDA" && r.Batch == 4 {
			at4 = r
		}
	}
	for _, r := range rows {
		if r.System != "RAMBDA" || r.Batch < 4 {
			continue
		}
		dt := r.Throughput/at4.Throughput - 1
		da := float64(r.Avg)/float64(at4.Avg) - 1
		if math.Abs(dt) > 0.01 || math.Abs(da) > 0.01 {
			t.Fatalf("RAMBDA batch %d: throughput %+.2f%%, latency %+.2f%% off batch 4, want within 1%%",
				r.Batch, dt*100, da*100)
		}
	}
}

func TestTab3PowerEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows := Tab3(testKVSConfig())
	m := map[string]float64{}
	for _, r := range rows {
		m[r.System] = r.KopPerW
	}
	if m["RAMBDA"] <= m["CPU"] {
		t.Fatal("RAMBDA must beat CPU on Kop/W")
	}
	if m["SmartNIC"] >= m["CPU"] {
		t.Fatal("SmartNIC trails CPU on Kop/W in the uniform workload")
	}
}

func TestFig12Shapes(t *testing.T) {
	rows := Fig12(Fig12Config{Pairs: 4000, Transactions: 3000, Seed: 12})
	m := map[string]Fig12Row{}
	for _, r := range rows {
		m[r.System+"/"+r.Shape+"/"+string(rune('0'+r.ValueBytes/1024))] = r
	}
	get := func(sys, shape string, val int) Fig12Row {
		return m[sys+"/"+shape+"/"+string(rune('0'+val/1024))]
	}
	for _, val := range []int{64, 1024} {
		hl, rb := get("HyperLoop", "(0,1)", val), get("RAMBDA", "(0,1)", val)
		diff := float64(rb.Avg)/float64(hl.Avg) - 1
		if diff < -0.05 || diff > 0.08 {
			t.Fatalf("(0,1)@%dB parity broken: %.1f%%", val, diff*100)
		}
		hl, rb = get("HyperLoop", "(4,2)", val), get("RAMBDA", "(4,2)", val)
		red := 1 - float64(rb.Avg)/float64(hl.Avg)
		if red < 0.5 || red > 0.75 {
			t.Fatalf("(4,2)@%dB reduction=%.1f%%, want ~63-67%%", val, red*100)
		}
		redP99 := 1 - float64(rb.P99)/float64(hl.P99)
		if redP99 < 0.5 || redP99 > 0.78 {
			t.Fatalf("(4,2)@%dB p99 reduction=%.1f%%", val, redP99*100)
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := Fig13Config{Queries: 5000, Dim: 64, RowScale: 0.05, Seed: 13}
	cat := dlrm.AmazonCategories[0]
	in := buildDLRM(cat, cfg)
	run := func(cores int, v core.AccelVariant) float64 {
		return fig13Point{cat: cat, cores: cores, variant: v}.simulate(cfg, in)
	}

	cpu1 := run(1, core.NoAccel)
	cpu8 := run(8, core.NoAccel)
	if cpu8 < 3*cpu1 {
		t.Fatalf("CPU-8 (%v) must scale well past CPU-1 (%v)", cpu8, cpu1)
	}
	base := run(0, core.AccelBase)
	if base >= 0.5*cpu1 {
		t.Fatalf("base RAMBDA (%v) must fall far below CPU-1 (%v) — paper 19.7-31.3%%", base, cpu1)
	}
	if base < 0.1*cpu1 {
		t.Fatalf("base RAMBDA (%v) implausibly slow vs CPU-1 (%v)", base, cpu1)
	}
	ld := run(0, core.AccelLD)
	lh := run(0, core.AccelLH)
	if !(lh > ld && ld > base) {
		t.Fatalf("want LH (%v) > LD (%v) > base (%v)", lh, ld, base)
	}
	if lh <= cpu8 {
		t.Fatalf("LH (%v) must exceed CPU-8 (%v)", lh, cpu8)
	}
}

func TestTablesRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "n")
	s := tab.String()
	if s == "" || len(s) < 20 {
		t.Fatal("render")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad row width must panic")
		}
	}()
	tab.AddRow("only-one")
}

// TestSelectSpecs pins the -only selector shared by rambda-figures and
// rambda-bench: print order, case-insensitive ids, duplicates run once,
// and an unknown id is an error rather than an empty run.
func TestSelectSpecs(t *testing.T) {
	var all []string
	for _, s := range StandardSpecs(true) {
		all = append(all, s.ID)
	}
	if len(all) != 15 {
		t.Fatalf("StandardSpecs has %d specs, want 15", len(all))
	}
	for _, tc := range []struct {
		only    string
		want    []string
		wantErr string
	}{
		{only: "", want: all},
		{only: "Tab3, fig8", want: []string{"fig8", "tab3"}},
		{only: "fig8,fig8", want: []string{"fig8"}},
		{only: "fig8,nope", wantErr: "nope"},
	} {
		specs, err := SelectSpecs(true, tc.only)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("SelectSpecs(%q) error = %v, want one naming %q", tc.only, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("SelectSpecs(%q): %v", tc.only, err)
			continue
		}
		var got []string
		for _, s := range specs {
			got = append(got, s.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("SelectSpecs(%q) = %v, want %v", tc.only, got, tc.want)
		}
	}
}

// TestParallelMatchesSequentialFig7 asserts the harness's core
// guarantee: the same seeds produce byte-identical rendered tables
// whether the sweep runs on one worker or eight. fig7's points share one
// list and fig13's one model per category, read by several workers at
// once.
func TestParallelMatchesSequentialFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	f7 := testFig7Config()
	f7.Requests = 6000
	f13 := Fig13Config{Queries: 2000, Dim: 64, RowScale: 0.05, Seed: 13}
	for _, tc := range []struct {
		id   string
		spec func() Spec
	}{
		{"fig7", func() Spec { return Fig7Spec(f7) }},
		{"fig13", func() Spec { return Fig13Spec(f13) }},
	} {
		seq := RunSpec(1, tc.spec()).String()
		par := RunSpec(8, tc.spec()).String()
		if seq != par {
			t.Errorf("%s output differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", tc.id, seq, par)
		}
	}
}

// TestParallelMatchesSequentialFig8 covers the KVS path, whose points
// build full client/server machines, SmartNIC caches, and Zipf streams.
func TestParallelMatchesSequentialFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := testKVSConfig()
	cfg.Requests = 5000
	seq := RunSpec(1, KVSSpecs(cfg)[0]).String()
	par := RunSpec(8, KVSSpecs(cfg)[0]).String()
	if seq != par {
		t.Fatalf("fig8 output differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestSpecJobsCoverAllSlots asserts every figure Spec enumerates at
// least one job and renders without running into an unfilled slot
// (small scales keep this fast; the render itself would panic on a
// malformed table).
func TestSpecJobsCoverAllSlots(t *testing.T) {
	kcfg := testKVSConfig()
	kcfg.Requests = 500
	specs := append([]Spec{
		Fig1Spec(300, 1),
		Fig5Spec(),
		Fig12Spec(Fig12Config{Pairs: 500, Transactions: 200, Seed: 12}),
		ScalabilitySpec(ScalabilityConfig{Sweep: []int{4, 8}, RingEntries: 8, EntryBytes: 64, Requests: 400, Seed: 31}),
	}, KVSSpecs(kcfg)...)
	for _, s := range specs {
		if len(s.Jobs) == 0 {
			t.Fatalf("%s: no jobs", s.ID)
		}
		for i, j := range s.Jobs {
			if j.Experiment != s.ID || j.Point != i {
				t.Fatalf("%s: job %d misidentified as %s[%d]", s.ID, i, j.Experiment, j.Point)
			}
		}
		tab := RunSpec(4, s)
		if tab.ID != s.ID {
			t.Fatalf("%s: rendered table carries ID %q", s.ID, tab.ID)
		}
		if len(tab.Rows) != len(s.Jobs) {
			t.Fatalf("%s: rendered %d rows from %d jobs", s.ID, len(tab.Rows), len(s.Jobs))
		}
	}
}

func TestZipfWorkloadSkew(t *testing.T) {
	cfg := testKVSConfig()
	gen := kvsGen(cfg, true, false)
	counts := map[string]int{}
	var wk kvsWork
	for i := 0; i < 5000; i++ {
		gen(&wk)
		counts[string(wk.key)]++
	}
	if counts[string(appendKVSKey(nil, 0))] < 50 {
		t.Fatal("zipf workload must hammer the hottest key")
	}
}

func TestScalabilitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := ScalabilityConfig{
		Sweep: []int{8, 64, 256}, RingEntries: 16, EntryBytes: 64,
		Requests: 6000, Seed: 31,
	}
	rows := Scalability(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i, r := range rows {
		// The pinned cpoll region stays at ~4 B per connection.
		if r.CpollRegionB > uint64(r.Connections*8) {
			t.Fatalf("cpoll region %d B for %d conns", r.CpollRegionB, r.Connections)
		}
		if i > 0 && r.Throughput < rows[i-1].Throughput*8/10 {
			t.Fatalf("throughput collapsed at %d connections: %v -> %v",
				r.Connections, rows[i-1].Throughput, r.Throughput)
		}
	}
}
