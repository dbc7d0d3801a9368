package chainrep

import (
	"fmt"

	"rambda/internal/lsm"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Backend abstracts a replica's persistent storage engine. The paper's
// transaction system addresses pairs by NVM offset (HyperLoop
// semantics); the engine underneath can be the flat NVM data area or a
// RocksDB-like LSM database, which is what the paper's evaluation runs
// on ("we adopt RocksDB ... to use the emulated NVM as a persistent
// storage medium", Sec. VI-C).
type Backend interface {
	// ReadInto appends n bytes at offset to dst (which may be nil) and
	// returns the grown slice, charging storage time. This is the
	// primary read form: callers that pass a reused buffer read without
	// allocating once its capacity has grown to the working size.
	ReadInto(dst []byte, now sim.Time, offset uint32, n int) ([]byte, sim.Time)
	// Write persists data at offset, charging storage time.
	Write(now sim.Time, offset uint32, data []byte) sim.Time
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*LSMBackend)(nil)
)

// LSMBackend adapts an lsm.DB to the offset-addressed Backend
// interface: each offset is one database key.
type LSMBackend struct {
	DB *lsm.DB
}

// NewLSMBackend opens an LSM database on the replica's NVM.
func NewLSMBackend(space *memspace.Space, mem *memdev.System, cfg lsm.Config) *LSMBackend {
	return &LSMBackend{DB: lsm.Open(space, mem, cfg)}
}

func lsmKey(offset uint32) string { return fmt.Sprintf("off-%08x", offset) }

// ReadInto implements Backend. Missing offsets read as zeroes (matching
// the flat store's freshly allocated data area).
func (b *LSMBackend) ReadInto(dst []byte, now sim.Time, offset uint32, n int) ([]byte, sim.Time) {
	val, at, ok := b.DB.Get(now, lsmKey(offset))
	if !ok {
		val = nil
	}
	if len(val) > n {
		val = val[:n]
	}
	dst = append(dst, val...)
	for i := len(val); i < n; i++ {
		dst = append(dst, 0)
	}
	return dst, at
}

// Write implements Backend.
func (b *LSMBackend) Write(now sim.Time, offset uint32, data []byte) sim.Time {
	at, err := b.DB.Put(now, lsmKey(offset), data)
	if err != nil {
		panic(fmt.Sprintf("chainrep: lsm backend write: %v", err))
	}
	return at
}

// NewNodeLSM builds a replica whose data area is an LSM database
// instead of the flat offset store; the redo log and concurrency
// control are unchanged.
func NewNodeLSM(space *memspace.Space, mem *memdev.System, cfg NodeConfig,
	dbCfg lsm.Config, logEntries, logEntrySize int) *Node {
	return &Node{
		cfg:   cfg,
		Store: NewLSMBackend(space, mem, dbCfg),
		Log:   NewRedoLog(space, mem, logEntries, logEntrySize),
		CC:    NewLockTable(),
	}
}
