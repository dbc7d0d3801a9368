package lsm

import (
	"fmt"
	"testing"

	"rambda/internal/memspace"
)

// currentRuns lists the regions of the tree's runs.
func currentRuns(db *DB) map[*memspace.Region]bool {
	out := map[*memspace.Region]bool{}
	for _, level := range db.Runs() {
		for _, r := range level {
			out[r] = true
		}
	}
	return out
}

// mapped reports whether r is still mapped in space.
func mapped(space *memspace.Space, r *memspace.Region) bool {
	return space.Region(r.Base) == r
}

// putUntilCompaction writes distinct keys through the serving path
// (no Maintain) until the tree compacts, and returns the runs the
// tree held just before that write.
func putUntilCompaction(t *testing.T, db *DB, from int) (before map[*memspace.Region]bool, next int) {
	t.Helper()
	start := db.Stats().Compactions
	for i := from; ; i++ {
		before = currentRuns(db)
		if _, err := db.PutInto(nil, []byte(fmt.Sprintf("key-%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
		if db.Stats().Compactions > start {
			return before, i + 1
		}
	}
}

// TestCompactionFreesSupersededRunsAfterMaintain pins when a superseded
// run leaves the address space: not at compaction time, while its
// region may still be named by an uncharged write, but at the end of
// the Maintain that charges the compaction.
func TestCompactionFreesSupersededRunsAfterMaintain(t *testing.T) {
	db, space, _ := newDB(t, smallConfig())
	db.Maintain(0)
	before, _ := putUntilCompaction(t, db, 0)
	now := currentRuns(db)
	var superseded []*memspace.Region
	for r := range before {
		if !now[r] {
			superseded = append(superseded, r)
		}
	}
	if len(superseded) == 0 {
		t.Fatal("the compaction superseded no run")
	}
	for _, r := range superseded {
		if !mapped(space, r) {
			t.Fatalf("run %q unmapped before its superseding write was charged", r.Name)
		}
	}
	for _, p := range db.pending {
		if space.Region(memspace.Addr(p.addr)) == nil {
			t.Fatalf("pending write names unmapped address %#x", p.addr)
		}
	}
	db.Maintain(0)
	for _, r := range superseded {
		if mapped(space, r) || r.Bytes() != nil {
			t.Fatalf("superseded run %q still mapped after Maintain", r.Name)
		}
	}
	// What stays mapped is the WAL, the memtable arena and the tree's
	// runs.
	live := currentRuns(db)
	if got, want := len(space.Regions()), 2+len(live); got != want {
		t.Fatalf("%d regions mapped, want %d (WAL, arena and %d runs)", got, want, len(live))
	}
	for r := range live {
		if !mapped(space, r) {
			t.Fatalf("current run %q unmapped", r.Name)
		}
	}
}

// TestRecoveredRunsFreedWhenSuperseded checks that a compaction of a
// recovered tree frees the recovered runs like runs it built itself.
func TestRecoveredRunsFreedWhenSuperseded(t *testing.T) {
	db, space, mem := newDB(t, smallConfig())
	_, next := putUntilCompaction(t, db, 0)
	db.Maintain(0)
	wal, walValid := db.WAL()
	re, err := Recover(space, mem, smallConfig(), wal, walValid, db.Runs())
	if err != nil {
		t.Fatal(err)
	}
	recovered := currentRuns(re)
	putUntilCompaction(t, re, next)
	re.Maintain(0)
	live, superseded := currentRuns(re), 0
	for r := range recovered {
		if live[r] {
			continue
		}
		superseded++
		if mapped(space, r) {
			t.Fatalf("recovered run %q stayed mapped after it was superseded", r.Name)
		}
	}
	if superseded == 0 {
		t.Fatal("the compaction superseded no recovered run")
	}
}

// TestSoakYCSBAMemoryFlat runs 10^6 YCSB-A operations (Zipf 0.99,
// 50/50 read/update) through the serving path on the ycsb experiment's
// tree shape, with Maintain after each (the LSMWriteCompact kernel's
// steps), and checks that memory goes flat after warmup. The peak
// mapped region count over the last 10% of operations must be no
// higher than over the 10-20% window, and so must the peak live backed
// bytes, give or take one memtable: the L0 runs are flushed memtables
// whose distinct-key counts follow the key stream, so two leak-free
// windows' peaks differ by a few records. One leaked run per
// compaction would add hundreds of KiB per window.
func TestSoakYCSBAMemoryFlat(t *testing.T) {
	const ops = 1_000_000
	b := NewWriteBench()
	space := b.db.space
	type peak struct{ bytes, regions int }
	var early, late peak
	var lateCompactions int64
	for op := 0; op < ops; op++ {
		b.Step(op)
		var w *peak
		switch {
		case op >= ops/10 && op < ops/5:
			w = &early
		case op >= ops-ops/10:
			w = &late
			if op == ops-ops/10 {
				lateCompactions = b.db.Stats().Compactions
			}
		default:
			continue
		}
		regions := space.Regions()
		live := 0
		for _, r := range regions {
			live += len(r.Bytes())
		}
		w.bytes = max(w.bytes, live)
		w.regions = max(w.regions, len(regions))
	}
	if b.db.Stats().Compactions == lateCompactions {
		t.Fatal("no compaction in the last window: the soak never exercised reclamation")
	}
	t.Logf("peak live bytes %d (10-20%%) vs %d (last 10%%); peak regions %d vs %d",
		early.bytes, late.bytes, early.regions, late.regions)
	if late.bytes > early.bytes+b.db.cfg.MemtableBytes || late.regions > early.regions {
		t.Fatalf("memory grows: peak live bytes %d -> %d, peak regions %d -> %d",
			early.bytes, late.bytes, early.regions, late.regions)
	}
}
