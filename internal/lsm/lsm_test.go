package lsm

import (
	"fmt"
	"testing"
	"testing/quick"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

func newDB(t *testing.T, cfg Config) (*DB, *memspace.Space, *memdev.System) {
	t.Helper()
	space := memspace.New()
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("dram", 6, 120e9, 90*sim.Nanosecond),
		NVM:   memdev.NewNVM("nvm", 6, 39e9, 300*sim.Nanosecond, 2),
		LLC:   memdev.NewLLC("llc", 300e9, 20*sim.Nanosecond),
	}
	return Open(space, mem, cfg), space, mem
}

func smallConfig() Config {
	return Config{
		MemtableBytes: 1 << 10,
		L0Runs:        2,
		SSTableBytes:  8 << 10,
		WALBytes:      4 << 10,
		MaxLevels:     3,
	}
}

// put writes key=val through the serving path and charges the
// background work it triggered, as the serving handler does.
func put(t *testing.T, db *DB, key, val string) {
	t.Helper()
	if _, err := db.PutInto(nil, []byte(key), []byte(val)); err != nil {
		t.Fatal(err)
	}
	db.Maintain(0)
}

// del writes a tombstone for key through the serving path and reports
// whether key was visible before.
func del(db *DB, key string) bool {
	_, ok := db.DeleteInto(nil, []byte(key))
	db.Maintain(0)
	return ok
}

// get reads key through the serving path.
func get(db *DB, key string) (string, bool) {
	v, _, ok := db.GetInto(nil, nil, []byte(key))
	return string(v), ok
}

// flush writes the memtable out as an L0 run and charges the write.
func flush(db *DB) {
	db.flushState()
	db.Maintain(0)
}

func TestPutGetDelete(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	put(t, db, "alpha", "1")
	if v, ok := get(db, "alpha"); !ok || v != "1" {
		t.Fatalf("get=%q ok=%v", v, ok)
	}
	if _, ok := get(db, "missing"); ok {
		t.Fatal("phantom key")
	}
	if !del(db, "alpha") {
		t.Fatal("delete did not see the live key")
	}
	if _, ok := get(db, "alpha"); ok {
		t.Fatal("deleted key visible")
	}
	if del(db, "alpha") {
		t.Fatal("second delete saw a live key")
	}
}

func TestFlushAndReadFromRuns(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	for i := 0; i < 100; i++ {
		put(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	st := db.Stats()
	if st.Flushes == 0 {
		t.Fatalf("expected flushes: %+v", st)
	}
	// Every key readable regardless of which structure holds it.
	for i := 0; i < 100; i++ {
		if v, ok := get(db, fmt.Sprintf("key-%03d", i)); !ok || v != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("key %d lost after flush (got %q ok=%v)", i, v, ok)
		}
	}
}

func TestCompactionMergesLevels(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	// Eight generations of the same 50 keys, each flushed as its own
	// run: L0 (bounded at 2 runs) must compact repeatedly, and the
	// newest generation must win everywhere.
	for gen := 0; gen < 8; gen++ {
		for i := 0; i < 50; i++ {
			put(t, db, fmt.Sprintf("k%04d", i), fmt.Sprintf("gen-%d", gen))
		}
		flush(db)
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatalf("expected compactions: %+v", st)
	}
	if st.Runs[0] > smallConfig().L0Runs+1 {
		t.Fatalf("L0 runs=%d not bounded", st.Runs[0])
	}
	for i := 0; i < 50; i++ {
		v, ok := get(db, fmt.Sprintf("k%04d", i))
		if !ok {
			t.Fatalf("key %d lost in compaction", i)
		}
		if v != "gen-7" {
			t.Fatalf("key %d = %q, want gen-7", i, v)
		}
	}
}

func TestTombstonesSurviveCompaction(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	put(t, db, "victim", "x")
	flush(db)
	del(db, "victim")
	flush(db) // tombstone now in its own run above the value
	if _, ok := get(db, "victim"); ok {
		t.Fatal("tombstone must shadow the older run")
	}
	// Force merges; the key must stay dead.
	for i := 0; i < 300; i++ {
		put(t, db, fmt.Sprintf("fill-%04d", i), "f")
	}
	if _, ok := get(db, "victim"); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
}

func TestCrashRecoveryFromWALAndRuns(t *testing.T) {
	db, space, mem := newDB(t, smallConfig())
	for i := 0; i < 60; i++ { // enough for a flush plus a WAL tail
		put(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
	}
	del(db, "key-010")

	wal, walValid := db.WAL()
	runs := db.Runs()

	// "Crash": reopen purely from the persistent regions.
	re, err := Recover(space, mem, smallConfig(), wal, walValid, runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("key-%03d", i)
		v, ok := get(re, key)
		if i == 10 {
			if ok {
				t.Fatal("tombstoned key survived recovery")
			}
			continue
		}
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s lost in recovery (got %q ok=%v)", key, v, ok)
		}
	}
}

func TestRecoveryDiscardsTornTail(t *testing.T) {
	db, space, mem := newDB(t, smallConfig())
	put(t, db, "whole", "record")
	put(t, db, "torn", "half-written-record")
	wal, walValid := db.WAL()
	// The crash happened mid-way through the second record.
	re, err := Recover(space, mem, smallConfig(), wal, walValid-5, db.Runs())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := get(re, "whole"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := get(re, "torn"); ok {
		t.Fatal("torn record must be discarded")
	}
}

func TestWALWrapForcesFlush(t *testing.T) {
	cfg := smallConfig()
	cfg.MemtableBytes = 1 << 20 // never flush by size
	cfg.WALBytes = 512          // wrap quickly
	db, _, _ := newDB(t, cfg)
	for i := 0; i < 50; i++ {
		put(t, db, fmt.Sprintf("key-%04d", i), string(make([]byte, 40)))
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("WAL wrap must force a flush (otherwise durability breaks)")
	}
	for i := 0; i < 50; i++ {
		if _, ok := get(db, fmt.Sprintf("key-%04d", i)); !ok {
			t.Fatalf("key %d lost across WAL wrap", i)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	if _, err := db.PutInto(nil, nil, []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	cfg := smallConfig()
	cfg.WALBytes = 64
	db2, _, _ := newDB(t, cfg)
	if _, err := db2.PutInto(nil, []byte("k"), make([]byte, 128)); err == nil {
		t.Fatal("record larger than WAL accepted")
	}
}

func TestModelEquivalenceProperty(t *testing.T) {
	// Under any op sequence, the DB matches a plain map (including
	// across flush/compaction boundaries).
	type op struct {
		Op  uint8
		Key uint8
		Val uint8
	}
	f := func(ops []op) bool {
		db, _, _ := newDB(t, smallConfig())
		model := map[string]string{}
		for _, o := range ops {
			key := fmt.Sprintf("key-%d", o.Key%40)
			switch o.Op % 4 {
			case 0, 1:
				val := fmt.Sprintf("val-%d", o.Val)
				if _, err := db.PutInto(nil, []byte(key), []byte(val)); err != nil {
					return false
				}
				db.Maintain(0)
				model[key] = val
			case 2:
				v, ok := get(db, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 3:
				_, mok := model[key]
				if del(db, key) != mok {
					return false
				}
				delete(model, key)
			}
		}
		// Final full audit.
		for k, mv := range model {
			if v, ok := get(db, k); !ok || v != mv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDurabilityCostsTime checks that a put traces its WAL append, the
// durability point, as an NVM write of the whole record at its log
// address, and that charging a flush takes NVM time.
func TestDurabilityCostsTime(t *testing.T) {
	db, space, mem := newDB(t, smallConfig())
	trace, err := db.PutInto(nil, []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 || !trace[0].Write || trace[0].Bytes != recordBytes(1, 1) ||
		space.Region(trace[0].Addr) != db.wal || space.KindOf(trace[0].Addr) != memspace.KindNVM {
		t.Fatalf("put traced %+v, want a %d-byte NVM write into the WAL first", trace, recordBytes(1, 1))
	}
	db.flushState()
	if at, _ := db.Maintain(0); at <= 0 {
		t.Fatal("a flush must charge NVM time")
	}
	if mem.NVM.Resource().Ops() == 0 {
		t.Fatal("NVM not charged")
	}
}

// TestMemtableKeepsOneVersionPerKey pins the memtable's shape: the
// serving path only reads a key's latest write, so repeated puts of
// one key replace its entry instead of growing the entry array.
func TestMemtableKeepsOneVersionPerKey(t *testing.T) {
	cfg := smallConfig()
	cfg.MemtableBytes = 1 << 20 // no flush while the key is rewritten
	cfg.WALBytes = 1 << 20
	db, _, _ := newDB(t, cfg)
	const puts = 100
	for i := 0; i < puts; i++ {
		put(t, db, "hot", fmt.Sprintf("v%03d", i))
	}
	if db.Stats().Flushes != 0 {
		t.Fatal("the memtable flushed; the test needs the key to stay in it")
	}
	if n := len(db.mt.entries); n != 1 {
		t.Fatalf("%d puts of one key left %d entries, want 1", puts, n)
	}
	if v, ok := get(db, "hot"); !ok || v != fmt.Sprintf("v%03d", puts-1) {
		t.Fatalf("get=%q ok=%v, want the last put", v, ok)
	}
}
