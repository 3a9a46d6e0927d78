package wal

// FuzzWALReplay feeds hostile bytes to recovery as a segment file — the
// PR-3 codec-gauntlet treatment for the durability path. Recovery must
// never panic and never error on corruption (truncate-and-continue is
// the contract), must hand the replay hook exactly the records it
// counts, and the records it does accept must round-trip: re-
// journaling them into a fresh log and recovering again yields the
// same records. A second property pins the physical truncation: after
// a torn recovery the log must accept appends and recover cleanly.

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func FuzzWALReplay(f *testing.F) {
	// Seed 1: a clean log with every record type.
	f.Add(buildSeg(f, func(l *Log) {
		for _, r := range sampleRecords() {
			appendRecord(l, r)
		}
	}))
	// Seed 2: a clean log followed by garbage (torn tail).
	f.Add(append(buildSeg(f, func(l *Log) {
		l.AppendBatch([]float64{1, math.Inf(-1)}, false)
	}), 0xDE, 0xAD, 0xBE, 0xEF))
	// Seed 3: a frame with a corrupted CRC byte.
	flipped := buildSeg(f, func(l *Log) {
		l.AppendKeyed("k", []float64{2}, true)
		l.AppendBlob(RecPartial, "tok", []byte{0xC7, 1})
	})
	flipped[5] ^= 0x40
	f.Add(flipped)
	// Seed 4: a hostile length field.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 9, 9, 9})
	// Seed 5: empty file.
	f.Add([]byte{})
	// Seed 6: two frames larger than the reader buffer, the second torn
	// inside its payload, so reads cross the buffer boundary. The same
	// bytes are checked in as testdata seed-6; generating them here keeps
	// the seed larger than readBufSize if that constant grows.
	f.Add(bigTornSeg(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := openCollect(Options{Dir: dir, Fsync: PolicyOff})
		if err != nil {
			t.Fatalf("Open on hostile segment errored (must truncate instead): %v", err)
		}
		if rec.Stats.TruncatedBytes > int64(len(data)) {
			t.Fatalf("truncated %d bytes of a %d-byte segment", rec.Stats.TruncatedBytes, len(data))
		}
		if len(rec.Records) != rec.Stats.Records {
			t.Fatalf("hook saw %d records, stats count %d", len(rec.Records), rec.Stats.Records)
		}

		// The accepted prefix must be appendable: journal one more
		// record, recover, and see prefix + 1.
		l.AppendBatch([]float64{3.5}, false)
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit after hostile recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		_, rec2, err := openCollect(Options{Dir: dir, Fsync: PolicyOff})
		if err != nil {
			t.Fatalf("re-Open: %v", err)
		}
		if len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("after append: recovered %d records, want %d", len(rec2.Records), len(rec.Records)+1)
		}

		// Round-trip: re-journal the accepted records into a fresh log;
		// recovery must reproduce them bit for bit.
		dir2 := t.TempDir()
		l2, _, err := Open(Options{Dir: dir2, Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.Records {
			appendRecord(l2, r)
		}
		if err := l2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec3, err := openCollect(Options{Dir: dir2, Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec3.Records) != len(rec.Records) {
			t.Fatalf("round-trip recovered %d records, want %d", len(rec3.Records), len(rec.Records))
		}
		for i := range rec.Records {
			if !recordsEqual(rec3.Records[i], rec.Records[i]) {
				t.Fatalf("round-trip record %d = %+v, want %+v", i, rec3.Records[i], rec.Records[i])
			}
		}
	})
}

// buildSeg journals records via fn and returns the raw segment bytes.
func buildSeg(f *testing.F, fn func(*Log)) []byte {
	f.Helper()
	dir := f.TempDir()
	l, _, err := Open(Options{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		f.Fatal(err)
	}
	fn(l)
	if err := l.Commit(); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// bigTornSeg is two identical add frames, each larger than the reader
// buffer, with the second cut halfway through its payload. Every value
// is the bit pattern 0x6161616161616161 ("aaaaaaaa"), which keeps the
// checked-in corpus file readable.
func bigTornSeg(f *testing.F) []byte {
	xs := make([]float64, readBufSize/8+512)
	for i := range xs {
		xs[i] = math.Float64frombits(0x6161616161616161)
	}
	data := buildSeg(f, func(l *Log) {
		l.AppendBatch(xs, false)
		l.AppendBatch(xs, false)
	})
	return data[:len(data)*3/4]
}
