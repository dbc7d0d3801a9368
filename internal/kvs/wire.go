package kvs

import (
	"encoding/binary"
	"fmt"
)

// Op is a KVS request opcode on the wire (HERD-style RPC, paper
// Sec. V).
type Op byte

const (
	// OpGet reads a key.
	OpGet Op = iota + 1
	// OpPut inserts or updates a key.
	OpPut
	// OpDelete removes a key.
	OpDelete
	// OpScan visits up to ScanLimit pairs from Key (inclusive; reverse
	// order when the flag is set). Its request frame is
	// [1B op][2B keyLen][2B limit][1B flags][key] and its response uses
	// the multi-pair codec (AppendScanResponse/DecodeScanResponse).
	OpScan
)

// MaxScanLimit bounds one scan request; decode rejects larger frames
// (a server-side allocation guard, like the value-length caps).
const MaxScanLimit = 4096

// scanFlagReverse marks a descending scan in the request flags byte.
const scanFlagReverse = 0x01

// Status is a response status code.
type Status byte

const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusNotFound indicates a missing key.
	StatusNotFound
	// StatusError indicates a server-side failure (e.g. pool
	// exhaustion).
	StatusError
)

// Request is a client request.
type Request struct {
	Op  Op
	Key []byte
	Val []byte // PUT only
	// ScanLimit and Reverse apply to OpScan only: the pair budget and
	// scan direction from Key.
	ScanLimit int
	Reverse   bool
}

// AppendRequest serializes a request onto dst and returns the extended
// slice: [1B op][2B keyLen][4B valLen][key][val], except OpScan which
// frames as [1B op][2B keyLen][2B limit][1B flags][key] (same 6-byte
// fixed part + key, no value). Passing a buffer with retained capacity
// (dst[:0] of the previous call's result) makes the steady-state encode
// allocation-free.
func AppendRequest(dst []byte, r Request) []byte {
	if r.Op == OpScan {
		var hdr [6]byte
		hdr[0] = byte(OpScan)
		binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(r.Key)))
		binary.LittleEndian.PutUint16(hdr[3:5], uint16(r.ScanLimit))
		if r.Reverse {
			hdr[5] |= scanFlagReverse
		}
		dst = append(dst, hdr[:]...)
		return append(dst, r.Key...)
	}
	var hdr [7]byte
	hdr[0] = byte(r.Op)
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(r.Val)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Key...)
	return append(dst, r.Val...)
}

// DecodeRequest parses a request, validating opcode, truncation, and
// (for scans) the limit bound.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 1 {
		return Request{}, fmt.Errorf("kvs: empty request")
	}
	if Op(b[0]) == OpScan {
		if len(b) < 6 {
			return Request{}, fmt.Errorf("kvs: short scan request (%d bytes)", len(b))
		}
		kl := int(binary.LittleEndian.Uint16(b[1:3]))
		limit := int(binary.LittleEndian.Uint16(b[3:5]))
		if len(b) < 6+kl {
			return Request{}, fmt.Errorf("kvs: truncated scan request: have %d, want %d", len(b), 6+kl)
		}
		if limit == 0 || limit > MaxScanLimit {
			return Request{}, fmt.Errorf("kvs: scan limit %d out of range (1..%d)", limit, MaxScanLimit)
		}
		if b[5]&^byte(scanFlagReverse) != 0 {
			return Request{}, fmt.Errorf("kvs: unknown scan flags 0x%02x", b[5])
		}
		return Request{
			Op: OpScan, Key: b[6 : 6+kl],
			ScanLimit: limit, Reverse: b[5]&scanFlagReverse != 0,
		}, nil
	}
	if len(b) < 7 {
		return Request{}, fmt.Errorf("kvs: short request (%d bytes)", len(b))
	}
	kl := int(binary.LittleEndian.Uint16(b[1:3]))
	vl := int(binary.LittleEndian.Uint32(b[3:7]))
	if len(b) < 7+kl+vl {
		return Request{}, fmt.Errorf("kvs: truncated request: have %d, want %d", len(b), 7+kl+vl)
	}
	r := Request{Op: Op(b[0]), Key: b[7 : 7+kl], Val: b[7+kl : 7+kl+vl]}
	switch r.Op {
	case OpGet, OpPut, OpDelete:
		return r, nil
	default:
		return Request{}, fmt.Errorf("kvs: unknown opcode %d", b[0])
	}
}

// Response is a server response.
type Response struct {
	Status Status
	Val    []byte
}

// AppendResponse serializes a response onto dst and returns the
// extended slice: [1B status][4B valLen][val].
func AppendResponse(dst []byte, r Response) []byte {
	var hdr [5]byte
	hdr[0] = byte(r.Status)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(r.Val)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Val...)
}

// DecodeResponse parses a response.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 5 {
		return Response{}, fmt.Errorf("kvs: short response (%d bytes)", len(b))
	}
	vl := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) < 5+vl {
		return Response{}, fmt.Errorf("kvs: truncated response")
	}
	return Response{Status: Status(b[0]), Val: b[5 : 5+vl]}, nil
}

// AppendScanResponse serializes a scan response onto dst and returns
// the extended slice: [1B status][4B count] followed by count pairs of
// [2B klen][4B vlen][key][val]. buf/pairs use the ScanPair layout
// (ApplyScratch leaves them in the Scratch). The frame is what the wire
// charges for serialization, so scans with more pairs genuinely cost
// more link time.
func AppendScanResponse(dst []byte, status Status, buf []byte, pairs []ScanPair) []byte {
	var hdr [5]byte
	hdr[0] = byte(status)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(pairs)))
	dst = append(dst, hdr[:]...)
	for _, p := range pairs {
		var ph [6]byte
		binary.LittleEndian.PutUint16(ph[0:2], uint16(p.KeyLen))
		binary.LittleEndian.PutUint32(ph[2:6], uint32(p.ValLen))
		dst = append(dst, ph[:]...)
		dst = append(dst, buf[p.KeyOff:p.KeyOff+p.KeyLen+p.ValLen]...)
	}
	return dst
}

// DecodeScanResponse parses a scan response, appending one ScanPair per
// decoded pair to pairs. The returned flat buffer aliases b (pairs
// index into it); validation rejects short frames, truncated pairs,
// oversized counts, and trailing garbage.
func DecodeScanResponse(b []byte, pairs []ScanPair) (Status, []byte, []ScanPair, error) {
	if len(b) < 5 {
		return 0, nil, pairs, fmt.Errorf("kvs: short scan response (%d bytes)", len(b))
	}
	count := int(binary.LittleEndian.Uint32(b[1:5]))
	if count > MaxScanLimit {
		return 0, nil, pairs, fmt.Errorf("kvs: scan response count %d exceeds limit %d", count, MaxScanLimit)
	}
	payload := b[5:]
	off := 0
	for i := 0; i < count; i++ {
		if off+6 > len(payload) {
			return 0, nil, pairs, fmt.Errorf("kvs: truncated scan response pair %d", i)
		}
		kl := int(binary.LittleEndian.Uint16(payload[off : off+2]))
		vl := int(binary.LittleEndian.Uint32(payload[off+2 : off+6]))
		if off+6+kl+vl > len(payload) {
			return 0, nil, pairs, fmt.Errorf("kvs: truncated scan response pair %d body", i)
		}
		pairs = append(pairs, ScanPair{KeyOff: off + 6, KeyLen: kl, ValLen: vl})
		off += 6 + kl + vl
	}
	if off != len(payload) {
		return 0, nil, pairs, fmt.Errorf("kvs: %d trailing bytes after scan response", len(payload)-off)
	}
	return Status(b[0]), payload, pairs, nil
}

// Scratch is one worker's reusable buffer set for the request path:
// the value destination for GETs, the access-trace backing array, and
// the flat pair buffer for scans. All grow to the workload's high-water
// mark once and are then reused by every subsequent
// ApplyScratch/GetInto call, making the steady state allocation-free.
//
// Aliasing: the Response.Val, trace, and scan buffers returned by
// ApplyScratch point into the scratch and are only valid until the next
// call that reuses it. Callers that retain a value (caches, history
// logs) must copy.
type Scratch struct {
	Val   []byte
	Trace []Access
	// ScanBuf and ScanPairs hold an OpScan's result in the ScanPair
	// layout; encode them with AppendScanResponse.
	ScanBuf   []byte
	ScanPairs []ScanPair
}

// ApplyScratch executes a decoded request against any storage Backend
// with caller-owned buffers: the GET value is appended into sc.Val, the
// trace into sc.Trace, and scan results into sc.ScanBuf/sc.ScanPairs
// (all re-sliced to zero length first, capacity retained). OpScan responses
// travel in the scratch — encode with AppendScanResponse — because the
// single-value Response frame cannot carry multiple pairs.
func ApplyScratch(b Backend, r Request, sc *Scratch) (Response, []Access) {
	switch r.Op {
	case OpGet:
		val, trace, ok := b.GetInto(sc.Val[:0], sc.Trace[:0], r.Key)
		sc.Val, sc.Trace = val, trace
		if !ok {
			return Response{Status: StatusNotFound}, trace
		}
		return Response{Status: StatusOK, Val: val}, trace
	case OpPut:
		trace, err := b.PutInto(sc.Trace[:0], r.Key, r.Val)
		sc.Trace = trace
		if err != nil {
			return Response{Status: StatusError}, trace
		}
		return Response{Status: StatusOK}, trace
	case OpDelete:
		trace, ok := b.DeleteInto(sc.Trace[:0], r.Key)
		sc.Trace = trace
		if !ok {
			return Response{Status: StatusNotFound}, trace
		}
		return Response{Status: StatusOK}, trace
	case OpScan:
		limit := r.ScanLimit
		if limit > MaxScanLimit {
			return Response{Status: StatusError}, nil
		}
		buf, pairs, trace := b.ScanInto(sc.ScanBuf[:0], sc.ScanPairs[:0], sc.Trace[:0],
			r.Key, limit, r.Reverse)
		sc.ScanBuf, sc.ScanPairs, sc.Trace = buf, pairs, trace
		return Response{Status: StatusOK}, trace
	default:
		return Response{Status: StatusError}, nil
	}
}
