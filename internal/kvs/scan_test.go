package kvs

import (
	"bytes"
	"fmt"
	"testing"
)

// TestScanRequestRoundTrip pins the OpScan request frame: limit,
// reverse flag, and key survive encode/decode, and the validation
// rejects the malformed shapes a faulty fabric could deliver.
func TestScanRequestRoundTrip(t *testing.T) {
	for _, r := range []Request{
		{Op: OpScan, Key: []byte("user00000000000042"), ScanLimit: 16},
		{Op: OpScan, Key: []byte("z"), ScanLimit: MaxScanLimit, Reverse: true},
		{Op: OpScan, Key: nil, ScanLimit: 1},
	} {
		b := AppendRequest(nil, r)
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if got.Op != OpScan || !bytes.Equal(got.Key, r.Key) ||
			got.ScanLimit != r.ScanLimit || got.Reverse != r.Reverse {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

// TestScanRequestValidation pins the decode rejections.
func TestScanRequestValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"short header", []byte{byte(OpScan), 1, 0, 1}},
		{"truncated key", []byte{byte(OpScan), 5, 0, 1, 0, 0, 'k'}},
		{"zero limit", AppendRequest(nil, Request{Op: OpScan, Key: []byte("k"), ScanLimit: 0})},
		{"limit over max", AppendRequest(nil, Request{Op: OpScan, Key: []byte("k"), ScanLimit: MaxScanLimit + 1})},
	} {
		if _, err := DecodeRequest(tc.b); err == nil {
			t.Fatalf("%s: accepted %x", tc.name, tc.b)
		}
	}
}

// TestScanResponseRoundTrip pins the multi-pair codec both ways,
// including empty results, empty values, and the validation of
// truncated and oversized frames.
func TestScanResponseRoundTrip(t *testing.T) {
	var buf []byte
	var pairs []ScanPair
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := fmt.Sprintf("value-%d", i*i)
		if i == 3 {
			v = "" // empty value must survive
		}
		off := len(buf)
		buf = append(buf, k...)
		buf = append(buf, v...)
		pairs = append(pairs, ScanPair{KeyOff: off, KeyLen: len(k), ValLen: len(v)})
	}
	frame := AppendScanResponse(nil, StatusOK, buf, pairs)
	status, payload, got, err := DecodeScanResponse(frame, nil)
	if err != nil || status != StatusOK {
		t.Fatalf("decode: status %d err %v", status, err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i, p := range got {
		if !bytes.Equal(p.Key(payload), pairs[i].Key(buf)) ||
			!bytes.Equal(p.Val(payload), pairs[i].Val(buf)) {
			t.Fatalf("pair %d: %q=%q, want %q=%q", i,
				p.Key(payload), p.Val(payload), pairs[i].Key(buf), pairs[i].Val(buf))
		}
	}

	empty := AppendScanResponse(nil, StatusOK, nil, nil)
	if _, _, got, err := DecodeScanResponse(empty, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: pairs %d err %v", len(got), err)
	}

	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"short", frame[:3]},
		{"truncated pair", frame[:len(frame)-1]},
		{"trailing garbage", append(append([]byte{}, frame...), 0xAA)},
		{"oversized count", []byte{byte(StatusOK), 0xFF, 0xFF, 0xFF, 0xFF}},
	} {
		if _, _, _, err := DecodeScanResponse(tc.b, nil); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestStoreScanInto pins the hash backend's bucket-order cursor: every
// live pair is reachable in one full-table walk, limits cut the walk
// short, deleted keys never appear, and identical state yields an
// identical visit order (forward and reverse).
func TestStoreScanInto(t *testing.T) {
	s := newStore(64, 1<<20)
	const n = 200
	want := map[string]string{}
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)
		if _, err := s.PutInto(nil, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < n; i += 4 {
		k := fmt.Sprintf("key-%03d", i)
		s.DeleteInto(nil, []byte(k))
		delete(want, k)
	}

	// A full-table walk (limit >= live count) visits every live pair
	// exactly once.
	buf, pairs, trace := s.ScanInto(nil, nil, nil, nil, n, false)
	if len(trace) == 0 {
		t.Fatal("scan charged no accesses")
	}
	got := map[string]string{}
	for _, p := range pairs {
		got[string(p.Key(buf))] = string(p.Val(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("scan visited %d pairs, want %d live", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: scanned %q, want %q", k, got[k], v)
		}
	}

	// Limits bound the result; same start key, same prefix.
	b1, p1, _ := s.ScanInto(nil, nil, nil, []byte("key-050"), 10, false)
	if len(p1) != 10 {
		t.Fatalf("limit 10 emitted %d pairs", len(p1))
	}
	b2, p2, _ := s.ScanInto(nil, nil, nil, []byte("key-050"), 20, false)
	for i := range p1 {
		if !bytes.Equal(p1[i].Key(b1), p2[i].Key(b2)) {
			t.Fatalf("cursor order unstable at pair %d", i)
		}
	}

	// Reverse walks a different bucket order but the same live set.
	bufR, pairsR, _ := s.ScanInto(nil, nil, nil, nil, n, true)
	gotR := map[string]string{}
	for _, p := range pairsR {
		gotR[string(p.Key(bufR))] = string(p.Val(bufR))
	}
	if len(gotR) != len(want) {
		t.Fatalf("reverse scan visited %d pairs, want %d", len(gotR), len(want))
	}
}

// TestApplyScratchScanOverStore pins the wire-to-backend dispatch for
// scans on the hash engine: a decoded OpScan lands in the scratch's
// ScanBuf/ScanPairs and round-trips through the scan response codec.
func TestApplyScratchScanOverStore(t *testing.T) {
	s := newStore(32, 1<<20)
	for i := 0; i < 40; i++ {
		if _, err := s.PutInto(nil, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var sc Scratch
	req, err := DecodeRequest(AppendRequest(nil, Request{Op: OpScan, Key: []byte("k00"), ScanLimit: 8}))
	if err != nil {
		t.Fatal(err)
	}
	resp, trace := ApplyScratch(s, req, &sc)
	if resp.Status != StatusOK || len(sc.ScanPairs) != 8 || len(trace) == 0 {
		t.Fatalf("status %d, %d pairs, %d accesses", resp.Status, len(sc.ScanPairs), len(trace))
	}
	frame := AppendScanResponse(nil, resp.Status, sc.ScanBuf, sc.ScanPairs)
	_, payload, pairs, err := DecodeScanResponse(frame, nil)
	if err != nil || len(pairs) != 8 {
		t.Fatalf("wire round trip: %d pairs err %v", len(pairs), err)
	}
	for i, p := range pairs {
		if !bytes.Equal(p.Key(payload), sc.ScanPairs[i].Key(sc.ScanBuf)) {
			t.Fatalf("pair %d key mismatch over the wire", i)
		}
	}
}
