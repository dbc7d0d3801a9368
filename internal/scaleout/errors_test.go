package scaleout

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestTryGetNeverWrittenIsNotFound(t *testing.T) {
	cfg := testClusterConfig()
	cfg.RebalanceEvery = 0
	c := New(cfg)
	now := preloadN(c, 8)
	fe := c.NewFrontend()

	v, done, err := fe.TryGet(now, []byte("never-written"))
	if !errors.Is(err, ErrNotFound) || v != nil {
		t.Fatalf("TryGet of a missing key = %q, %v; want ErrNotFound", v, err)
	}
	if done != now+c.statusCost() {
		t.Fatalf("miss completed at %v, want one status round trip after %v", done, now)
	}
	if st := c.Stats(); st.Requests != 0 || st.Failed != 0 {
		t.Fatalf("a miss counted as served or failed: %+v", st)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, ErrNotFound.Error()) {
			t.Fatalf("Get of a missing key recovered %q, want the ErrNotFound panic", msg)
		}
	}()
	fe.Get(done, []byte("never-written"))
}

func TestTryPutFullShardErrors(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Shards = 1
	cfg.SlotsPerShard = 4
	cfg.RebalanceEvery = 0
	c := New(cfg)
	fe := c.NewFrontend()
	val := []byte("v")
	now := preloadN(c, 4)

	var key []byte
	key = appendBenchKey(key, 4)
	done, err := fe.TryPut(now, key, val)
	if !errors.Is(err, ErrShardFull) {
		t.Fatalf("TryPut of a fifth key on a 4-slot shard: %v, want ErrShardFull", err)
	}
	if done != now+c.statusCost() {
		t.Fatalf("rejection completed at %v, want one status round trip after %v", done, now)
	}
	if _, _, err := fe.TryGet(done, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a rejected key became readable: %v", err)
	}
	// Keys that already own a slot still take writes.
	key = appendBenchKey(key[:0], 3)
	if done, err = fe.TryPut(done, key, val); err != nil {
		t.Fatalf("update of a resident key on a full shard: %v", err)
	}
	if got, _, err := fe.TryGet(done, key); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("read back %q, %v; want %q", got, err, val)
	}
}

func TestTryPutOversizeValueErrors(t *testing.T) {
	cfg := testClusterConfig()
	cfg.RebalanceEvery = 0
	c := New(cfg)
	fe := c.NewFrontend()
	now := preloadN(c, 1)
	big := make([]byte, cfg.SlotBytes+1)

	// A new key and a resident key are both refused; the resident key
	// keeps its value.
	for _, k := range []int{1, 0} {
		key := appendBenchKey(nil, k)
		done, err := fe.TryPut(now, key, big)
		if !errors.Is(err, ErrValueTooLarge) {
			t.Fatalf("key %d: TryPut of %d B into %d B slots: %v, want ErrValueTooLarge",
				k, len(big), cfg.SlotBytes, err)
		}
		if done != now+c.statusCost() {
			t.Fatalf("key %d: rejection completed at %v, want one status round trip after %v", k, done, now)
		}
	}
	got, _, err := fe.TryGet(now, appendBenchKey(nil, 0))
	if err != nil || len(got) != 46 {
		t.Fatalf("resident key after a refused write: %d B, %v; want its 46 B preload", len(got), err)
	}
	// A value that exactly fills the slot is accepted.
	key := appendBenchKey(nil, 1)
	done, err := fe.TryPut(now, key, big[:cfg.SlotBytes])
	if err != nil {
		t.Fatalf("TryPut of a slot-sized value: %v", err)
	}
	if got, _, err := fe.TryGet(done, key); err != nil || len(got) != cfg.SlotBytes {
		t.Fatalf("read back %d B, %v; want %d B", len(got), err, cfg.SlotBytes)
	}
}
