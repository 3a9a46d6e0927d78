package wal

// Record types and the frame codec. Every journaled mutation is one
// record, encoded as one frame in the active segment:
//
//	frame   := length(u32 LE) crc(u32 LE) payload
//	crc     := CRC32C (Castagnoli) of payload
//	payload := type(1 byte) body
//
// Bodies (all integers are unsigned varints, floats are raw IEEE-754
// little-endian bits — the same exact representation the wire protocol
// uses, so journaling is lossless for every value including ±Inf, NaN
// payloads, and signed zeros):
//
//	RecAdd / RecSub                n, then n float64s
//	RecKeyedAdd / RecKeyedSub      len(key), key, n, then n float64s
//	RecPartial / RecKeyedEnvelope /
//	RecKeyedJSON                   len(token), token, len(blob), blob
//	RecReset                       (empty)
//
// The CRC covers the payload only: a corrupted length field either
// points past the end of the segment (torn tail) or frames a span whose
// CRC cannot match, so recovery rejects it either way. Records after
// the first bad frame are never replayed — the log's logical content is
// the longest valid frame prefix.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// Type tags one journaled record.
type Type uint8

const (
	// RecAdd journals an unkeyed value batch accepted via /v1/add.
	RecAdd Type = 1 + iota
	// RecSub journals an unkeyed exact deletion accepted via /v1/sub.
	RecSub
	// RecKeyedAdd journals a keyed value batch.
	RecKeyedAdd
	// RecKeyedSub journals a keyed exact deletion.
	RecKeyedSub
	// RecPartial journals a merged wire partial (POST /v1/partial); the
	// body carries the client's idempotency token (possibly empty) and
	// the raw partial blob.
	RecPartial
	// RecKeyedEnvelope journals a merged keyed envelope
	// (POST /v1/keyed/partial, binary form), token + blob like RecPartial.
	RecKeyedEnvelope
	// RecReset journals POST /v1/reset, so replay wipes state at the
	// same point in the history the live process did.
	RecReset
	// RecKeyedJSON journals the JSON form of POST /v1/keyed/partial:
	// the blob is the validated request body, replayed by decoding it
	// the same way the handler did. Token + blob like RecPartial.
	RecKeyedJSON

	recMax = RecKeyedJSON
)

func (t Type) String() string {
	switch t {
	case RecAdd:
		return "add"
	case RecSub:
		return "sub"
	case RecKeyedAdd:
		return "keyed-add"
	case RecKeyedSub:
		return "keyed-sub"
	case RecPartial:
		return "partial"
	case RecKeyedEnvelope:
		return "keyed-envelope"
	case RecReset:
		return "reset"
	case RecKeyedJSON:
		return "keyed-json"
	}
	return fmt.Sprintf("wal.Type(%d)", uint8(t))
}

// Record is one decoded journal entry. During recovery Values and Blob
// alias the scanner's reused buffers: they are valid only until the
// replay hook (Options.OnRecord) returns, so a hook that keeps either
// must copy it. Key and Token are ordinary strings and may be kept.
type Record struct {
	Type   Type
	Key    string    // RecKeyedAdd / RecKeyedSub
	Token  string    // RecPartial / RecKeyedEnvelope; "" when none given
	Values []float64 // RecAdd / RecSub / RecKeyedAdd / RecKeyedSub
	Blob   []byte    // RecPartial / RecKeyedEnvelope
}

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64, and the conventional WAL checksum).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxFrameLen rejects hostile length fields before any allocation;
	// it comfortably exceeds the largest legitimate record (a request
	// body is capped upstream by the server's MaxBodyBytes).
	maxFrameLen = 1 << 30
	// MaxKeyLen mirrors the keyed store's key bound; decode rejects
	// larger claimed key lengths before allocating.
	maxRecKeyLen = 1 << 16
	maxRecToken  = 1 << 12
)

var errBadFrame = errors.New("wal: bad frame")

// appendUvarint / float encoding helpers keep the append hot path free
// of per-record allocations: callers reuse one scratch buffer.

func appendFloats(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func encodeBatch(b []byte, t Type, key string, xs []float64) []byte {
	b = append(b, byte(t))
	if t == RecKeyedAdd || t == RecKeyedSub {
		b = binary.AppendUvarint(b, uint64(len(key)))
		b = append(b, key...)
	}
	b = binary.AppendUvarint(b, uint64(len(xs)))
	return appendFloats(b, xs)
}

func encodeBlob(b []byte, t Type, token string, blob []byte) []byte {
	b = append(b, byte(t))
	b = binary.AppendUvarint(b, uint64(len(token)))
	b = append(b, token...)
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

// decodeRecord parses one frame payload into a Record. Values decode
// into *vals (grown as needed) and Blob aliases p, so the Record lives
// only as long as both buffers go unreused; Key and Token are copies.
func decodeRecord(p []byte, vals *[]float64) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", errBadFrame)
	}
	t := Type(p[0])
	p = p[1:]
	switch t {
	case RecAdd, RecSub:
		xs, rest, err := decodeFloats(p, vals)
		if err != nil || len(rest) != 0 {
			return Record{}, fmt.Errorf("%w: %s body", errBadFrame, t)
		}
		return Record{Type: t, Values: xs}, nil
	case RecKeyedAdd, RecKeyedSub:
		key, rest, err := decodeString(p, maxRecKeyLen)
		if err != nil {
			return Record{}, fmt.Errorf("%w: %s key", errBadFrame, t)
		}
		xs, rest, err := decodeFloats(rest, vals)
		if err != nil || len(rest) != 0 {
			return Record{}, fmt.Errorf("%w: %s body", errBadFrame, t)
		}
		return Record{Type: t, Key: key, Values: xs}, nil
	case RecPartial, RecKeyedEnvelope, RecKeyedJSON:
		token, rest, err := decodeString(p, maxRecToken)
		if err != nil {
			return Record{}, fmt.Errorf("%w: %s token", errBadFrame, t)
		}
		n, m := binary.Uvarint(rest)
		if m <= 0 || n > uint64(len(rest)-m) {
			return Record{}, fmt.Errorf("%w: %s blob length", errBadFrame, t)
		}
		rest = rest[m:]
		if uint64(len(rest)) != n {
			return Record{}, fmt.Errorf("%w: %s trailing bytes", errBadFrame, t)
		}
		return Record{Type: t, Token: token, Blob: rest[:n:n]}, nil
	case RecReset:
		if len(p) != 0 {
			return Record{}, fmt.Errorf("%w: reset body not empty", errBadFrame)
		}
		return Record{Type: RecReset}, nil
	}
	return Record{}, fmt.Errorf("%w: unknown type %d", errBadFrame, uint8(t))
}

func decodeString(p []byte, limit uint64) (s string, rest []byte, err error) {
	n, m := binary.Uvarint(p)
	if m <= 0 || n > limit || n > uint64(len(p)-m) {
		return "", nil, errBadFrame
	}
	return string(p[m : m+int(n)]), p[m+int(n):], nil
}

func decodeFloats(p []byte, buf *[]float64) (xs []float64, rest []byte, err error) {
	n, m := binary.Uvarint(p)
	if m <= 0 {
		return nil, nil, errBadFrame
	}
	p = p[m:]
	if n > uint64(len(p))/8 {
		return nil, nil, errBadFrame
	}
	*buf = slices.Grow((*buf)[:0], int(n))
	xs = (*buf)[:n]
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return xs, p[8*n:], nil
}

// putFrameHeader writes the 8-byte frame header (length + CRC32C) for
// payload into hdr.
func putFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}

// readBufSize is the recovery reader's buffer. Frames larger than it
// read straight into the payload buffer, so it bounds syscalls, not
// correctness.
const readBufSize = 16 << 10

// scanner streams segment files frame by frame. The reader, payload and
// value buffers are reused across frames and segments, so recovery
// holds O(readBufSize + largest frame) bytes however long the journal
// is — one blocked pass, like the external-memory summation scan.
type scanner struct {
	br      *bufio.Reader
	payload []byte
	vals    []float64
}

func newScanner() *scanner {
	return &scanner{br: bufio.NewReaderSize(nil, readBufSize)}
}

// scan reads the segment at path, calling fn with each valid record in
// order, and returns the length of its valid frame prefix and the file
// size. A length field pointing past the end of the file, an over-limit
// length, a CRC mismatch, or an undecodable payload all end the scan
// there — the remainder is the torn tail. Read errors and fn's error
// abort the scan and are returned.
func (sc *scanner) scan(path string, fn func(Record) error) (valid, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening segment %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: stat segment %s: %w", path, err)
	}
	size = st.Size()
	sc.br.Reset(f)
	var hdr [frameHeaderLen]byte
	for size-valid >= frameHeaderLen {
		if _, err := io.ReadFull(sc.br, hdr[:]); err != nil {
			return valid, size, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		// The length is checked against what the file still holds before
		// anything is allocated, so a hostile length field costs nothing.
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if n > maxFrameLen || n > size-valid-frameHeaderLen {
			break
		}
		sc.payload = slices.Grow(sc.payload[:0], int(n))
		payload := sc.payload[:n]
		if _, err := io.ReadFull(sc.br, payload); err != nil {
			return valid, size, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			break
		}
		// A frame that passes CRC but not the record grammar was written
		// by a different version or is corrupt in a way CRC cannot see;
		// either way nothing after it can be trusted.
		r, derr := decodeRecord(payload, &sc.vals)
		if derr != nil {
			break
		}
		if err := fn(r); err != nil {
			return valid, size, err
		}
		valid += frameHeaderLen + n
	}
	return valid, size, nil
}
