package kvs

import (
	"bytes"
	"testing"

	"rambda/internal/memspace"
)

// FuzzDecodeRequest hammers the request parser with arbitrary frames —
// the bytes a faulty fabric could deliver. The parser must reject or
// return a request whose fields round-trip; it must never panic, and an
// accepted frame must survive Apply against a live store.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, Key: []byte("k")}))
	f.Add(AppendRequest(nil, Request{Op: OpPut, Key: []byte("key"), Val: []byte("value")}))
	f.Add(AppendRequest(nil, Request{Op: OpDelete, Key: bytes.Repeat([]byte{7}, 300)}))
	f.Add(AppendRequest(nil, Request{Op: OpScan, Key: []byte("user"), ScanLimit: 16}))
	f.Add(AppendRequest(nil, Request{Op: OpScan, Key: []byte("z"), ScanLimit: MaxScanLimit, Reverse: true}))
	f.Add([]byte{})
	f.Add([]byte{byte(OpPut), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // huge claimed lengths
	f.Add([]byte{99, 0, 0, 0, 0, 0, 0})                            // unknown opcode
	f.Add([]byte{byte(OpScan), 1, 0, 0, 0, 0, 'k'})                // zero scan limit
	f.Add([]byte{byte(OpScan), 1, 0, 0xFF, 0xFF, 0, 'k'})          // limit over MaxScanLimit
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRequest(b)
		if err != nil {
			return
		}
		switch r.Op {
		case OpGet, OpPut, OpDelete:
		case OpScan:
			if r.ScanLimit <= 0 || r.ScanLimit > MaxScanLimit {
				t.Fatalf("accepted out-of-range scan limit %d", r.ScanLimit)
			}
		default:
			t.Fatalf("accepted unknown opcode %d", r.Op)
		}
		if re := AppendRequest(nil, r); !bytes.Equal(re, b[:len(re)]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, b[:len(re)])
		}
		// An accepted frame must execute without panicking, whatever the
		// key/value shapes are.
		s := New(memspace.New(), Config{Buckets: 16, PoolBytes: 1 << 16, Kind: memspace.KindDRAM})
		resp, _ := ApplyScratch(s, r, &Scratch{})
		if resp.Status != StatusOK && resp.Status != StatusNotFound && resp.Status != StatusError {
			t.Fatalf("invalid response status %d", resp.Status)
		}
	})
}

// FuzzDecodeResponse does the same for the response parser.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendResponse(nil, Response{Status: StatusOK, Val: []byte("v")}))
	f.Add(AppendResponse(nil, Response{Status: StatusNotFound}))
	f.Add([]byte{})
	f.Add([]byte{byte(StatusOK), 0xFF, 0xFF, 0xFF, 0xFF}) // claims 4 GiB value
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResponse(b)
		if err != nil {
			return
		}
		if re := AppendResponse(nil, r); !bytes.Equal(re, b[:len(re)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// scanFrame builds a well-formed scan response for the fuzz corpus.
func scanFrame(status Status, kvs ...string) []byte {
	var buf []byte
	var pairs []ScanPair
	for i := 0; i+1 < len(kvs); i += 2 {
		off := len(buf)
		buf = append(buf, kvs[i]...)
		buf = append(buf, kvs[i+1]...)
		pairs = append(pairs, ScanPair{KeyOff: off, KeyLen: len(kvs[i]), ValLen: len(kvs[i+1])})
	}
	return AppendScanResponse(nil, status, buf, pairs)
}

// FuzzDecodeScanResponse hammers the multi-pair parser: it must reject
// truncated pairs, oversized counts, and trailing garbage without
// panicking, and an accepted frame must re-encode byte-identically
// through AppendScanResponse (proving the pair offsets are exact).
func FuzzDecodeScanResponse(f *testing.F) {
	f.Add(scanFrame(StatusOK))
	f.Add(scanFrame(StatusOK, "k1", "v1"))
	f.Add(scanFrame(StatusOK, "k1", "v1", "key-two", "value-two", "k3", ""))
	f.Add(scanFrame(StatusNotFound, "", "v"))
	f.Add([]byte{})
	f.Add([]byte{byte(StatusOK), 0xFF, 0xFF, 0xFF, 0xFF})       // count 4 G pairs
	f.Add([]byte{byte(StatusOK), 1, 0, 0, 0, 0, 0, 0xFF, 0xFF}) // truncated pair body
	f.Add(append(scanFrame(StatusOK, "k", "v"), 0))             // trailing garbage
	f.Fuzz(func(t *testing.T, b []byte) {
		status, payload, pairs, err := DecodeScanResponse(b, nil)
		if err != nil {
			return
		}
		if len(pairs) > MaxScanLimit {
			t.Fatalf("accepted %d pairs over the limit", len(pairs))
		}
		// Rebuild the flat key/val buffer from the decoded pairs and
		// re-encode: byte-identity proves offsets and lengths are exact.
		var buf []byte
		re := make([]ScanPair, 0, len(pairs))
		for _, p := range pairs {
			off := len(buf)
			buf = append(buf, p.Key(payload)...)
			buf = append(buf, p.Val(payload)...)
			re = append(re, ScanPair{KeyOff: off, KeyLen: p.KeyLen, ValLen: p.ValLen})
		}
		if enc := AppendScanResponse(nil, status, buf, re); !bytes.Equal(enc, b) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc, b)
		}
	})
}
