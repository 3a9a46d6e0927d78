package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// replayed is what Open streamed to its replay hooks, collected.
type replayed struct {
	Snapshot *Snapshot
	Records  []Record // deep copies: hook Records alias the scanner's buffers
	Stats    RecoveryStats
}

// openCollect is Open with hooks that collect everything replayed.
func openCollect(opt Options) (*Log, *replayed, error) {
	got := &replayed{}
	opt.OnSnapshot = func(s *Snapshot) error {
		got.Snapshot = s
		return nil
	}
	opt.OnRecord = func(r Record) error {
		r.Values = append([]float64(nil), r.Values...)
		r.Blob = append([]byte(nil), r.Blob...)
		got.Records = append(got.Records, r)
		return nil
	}
	l, rec, err := Open(opt)
	if err != nil {
		return nil, nil, err
	}
	got.Stats = rec.Stats
	return l, got, nil
}

func mustOpen(t *testing.T, opt Options) (*Log, *replayed) {
	t.Helper()
	l, rec, err := openCollect(opt)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opt, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func sampleRecords() []Record {
	return []Record{
		{Type: RecAdd, Values: []float64{1, -2.5, math.Inf(1), math.Copysign(0, -1)}},
		{Type: RecSub, Values: []float64{math.NaN(), 1e300}},
		{Type: RecKeyedAdd, Key: "eu-west", Values: []float64{3.25}},
		{Type: RecKeyedSub, Key: "ap-south", Values: nil},
		{Type: RecPartial, Token: "tok-1", Blob: []byte{0xC7, 1, 2, 3}},
		{Type: RecKeyedEnvelope, Token: "", Blob: []byte{0xC9, 9}},
		{Type: RecReset},
	}
}

func appendRecord(l *Log, r Record) {
	switch r.Type {
	case RecAdd:
		l.AppendBatch(r.Values, false)
	case RecSub:
		l.AppendBatch(r.Values, true)
	case RecKeyedAdd:
		l.AppendKeyed(r.Key, r.Values, false)
	case RecKeyedSub:
		l.AppendKeyed(r.Key, r.Values, true)
	case RecPartial, RecKeyedEnvelope:
		l.AppendBlob(r.Type, r.Token, r.Blob)
	case RecReset:
		l.AppendReset()
	}
}

// recordsEqual compares bit patterns, not float values: NaN != NaN under
// ==, but the journal must preserve the exact bits.
func recordsEqual(a, b Record) bool {
	if a.Type != b.Type || a.Key != b.Key || a.Token != b.Token || !bytes.Equal(a.Blob, b.Blob) {
		return false
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

func checkRecovered(t *testing.T, got []Record, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w.Values == nil {
			w.Values = []float64{}
		}
		g := got[i]
		if g.Values == nil {
			g.Values = []float64{}
		}
		if !recordsEqual(g, w) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestRoundTripAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, Options{Dir: dir, Fsync: PolicyAlways})
	if rec.Stats.Records != 0 || rec.Stats.SnapshotLoaded {
		t.Fatalf("fresh dir recovered %+v", rec.Stats)
	}
	want := sampleRecords()
	for _, r := range want {
		appendRecord(l, r)
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	m := l.Metrics()
	if m.Records != int64(len(want)) || m.Commits != int64(len(want)) || m.Fsyncs < int64(len(want)) {
		t.Fatalf("metrics after %d records: %+v", len(want), m)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec2.Records, want)
	if rec2.Stats.Torn || rec2.Stats.TruncatedBytes != 0 {
		t.Fatalf("clean log reported torn recovery: %+v", rec2.Stats)
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1}, false)
	l.AppendKeyed("k", []float64{2}, false)
	l.AppendBatch([]float64{3}, true)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Commits != 1 || m.Records != 3 {
		t.Fatalf("group commit metrics: %+v", m)
	}
	l.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
}

// TestTornTailTruncates drives every prefix: for a log of n records the
// segment is truncated at each byte boundary; recovery must replay the
// longest valid frame prefix and never error, and appending after a
// torn recovery must produce a clean log again.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	want := sampleRecords()
	var boundaries []int64
	seg := filepath.Join(dir, segName(1))
	for _, r := range want {
		appendRecord(l, r)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Size())
	}
	l.Close()
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for i, b := range boundaries {
		// Exactly at the frame boundary: records 0..i survive.
		tdir := t.TempDir()
		writeSeg(t, tdir, 1, full[:b])
		_, rec := mustOpen(t, Options{Dir: tdir})
		checkRecovered(t, rec.Records, want[:i+1])

		// Mid-frame (3 bytes short): the torn record is dropped.
		tdir = t.TempDir()
		writeSeg(t, tdir, 1, full[:b-3])
		l2, rec2 := mustOpen(t, Options{Dir: tdir})
		checkRecovered(t, rec2.Records, want[:i])
		if !rec2.Stats.Torn || rec2.Stats.TruncatedBytes == 0 {
			t.Fatalf("boundary %d: torn tail not reported: %+v", i, rec2.Stats)
		}
		// The tail was physically truncated: appending and recovering
		// again must yield prefix + the new record, nothing else.
		l2.AppendBatch([]float64{42}, false)
		if err := l2.Commit(); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		_, rec3 := mustOpen(t, Options{Dir: tdir})
		checkRecovered(t, rec3.Records, append(append([]Record{}, want[:i]...), Record{Type: RecAdd, Values: []float64{42}}))
	}
}

func writeSeg(t *testing.T, dir string, idx int64, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segName(idx)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionMidHistory flips a byte in the FIRST of two segments:
// replay must stop at the corrupt frame and drop the later segment —
// the valid prefix is the log.
func TestCorruptionMidHistory(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff, SegBytes: 1})
	// SegBytes 1 forces a rotation at every commit: record i lands in
	// segment i+1.
	for i := 0; i < 4; i++ {
		l.AppendBatch([]float64{float64(i)}, false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Corrupt segment 2 (the second record).
	seg2 := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{0}}})
	if !rec.Stats.Torn {
		t.Fatalf("mid-history corruption not reported: %+v", rec.Stats)
	}
	// The segments after the corruption are gone.
	for i := int64(3); i <= 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, segName(i))); !os.IsNotExist(err) {
			t.Errorf("segment %d survived a mid-history truncation", i)
		}
	}
}

func TestRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff, SegBytes: 64})
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{Type: RecAdd, Values: []float64{float64(i)}}
		want = append(want, r)
		appendRecord(l, r)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if m := l.Metrics(); m.Rotations == 0 || m.Segments < 2 {
		t.Fatalf("no rotation at SegBytes=64: %+v", m)
	}
	l.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, want)
	if rec.Stats.Segments < 2 {
		t.Fatalf("replay did not cross segments: %+v", rec.Stats)
	}
}

func TestSnapshotTruncatesReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1, 2}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Global: []byte{0xC7, 9, 9}, Keyed: []byte{0xC9}, Tokens: []string{"a", "b"}}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	l.AppendBatch([]float64{3}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Snapshots != 1 {
		t.Fatalf("snapshot metrics: %+v", m)
	}
	l.Close()

	_, rec := mustOpen(t, Options{Dir: dir})
	if !rec.Stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if !reflect.DeepEqual(rec.Snapshot, snap) {
		t.Fatalf("snapshot = %+v, want %+v", rec.Snapshot, snap)
	}
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{3}}})
	// The pre-snapshot segment is deleted.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Error("pre-snapshot segment survived")
	}
}

// TestCorruptSnapshotFallsBack verifies that a damaged snapshot file is
// ignored: with no older snapshot, recovery replays the full log.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{7}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A snapshot claiming base 9 that fails its CRC must not hide the
	// segments (nor make recovery error).
	if err := os.WriteFile(filepath.Join(dir, snapName(9)), []byte("PSWSgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	if rec.Stats.SnapshotLoaded {
		t.Fatal("corrupt snapshot loaded")
	}
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{7}}})
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": PolicyAlways, "always": PolicyAlways,
		"interval": PolicyInterval, "off": PolicyOff,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

func TestIntervalPolicyFsyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyInterval, Interval: time.Millisecond})
	l.AppendBatch([]float64{1}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Metrics().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

// TestAppendCommitHotPathZeroAlloc is the journal hot-path guard: once
// the scratch buffers are warm, journaling a batch and committing it
// (fsync off) must not allocate.
func TestAppendCommitHotPathZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = float64(i) * 1.5
	}
	// Warm the scratch and pending buffers.
	for i := 0; i < 4; i++ {
		l.AppendBatch(xs, false)
		l.AppendKeyed("warm-key", xs[:8], true)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		l.AppendBatch(xs, false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendBatch+Commit allocates %.1f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.AppendKeyed("warm-key", xs[:8], false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendKeyed+Commit allocates %.1f times per op, want 0", n)
	}
}

// shortFile is a segment whose next write stores only half its bytes and
// fails, as a full disk or a failing device can.
type shortFile struct {
	segmentFile
	short bool
}

func (f *shortFile) Write(p []byte) (int, error) {
	if !f.short {
		return f.segmentFile.Write(p)
	}
	f.short = false
	n, _ := f.segmentFile.Write(p[:len(p)/2])
	return n, errors.New("shortFile: device full")
}

// TestShortWriteLeavesNoPartialFrame: a commit whose write comes up short
// fails, and the next commit writes its frames right after the last whole
// frame — not after the partial one, which replay would stop at, dropping
// every frame acknowledged after it.
func TestShortWriteLeavesNoPartialFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyAlways})
	recs := sampleRecords()
	appendRecord(l, recs[0])
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.f = &shortFile{segmentFile: l.f, short: true}
	appendRecord(l, recs[1])
	if err := l.Commit(); err == nil {
		t.Fatal("short write reported success")
	}
	appendRecord(l, recs[2])
	if err := l.Commit(); err != nil {
		t.Fatalf("commit after a short write: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := mustOpen(t, Options{Dir: dir})
	if got.Stats.Torn {
		t.Fatalf("recovery found a torn frame: %+v", got.Stats)
	}
	checkRecovered(t, got.Records, recs[:3])
}

func TestCommitAfterCloseFails(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	l.Close()
	l.AppendBatch([]float64{1}, false)
	if err := l.Commit(); err == nil {
		t.Fatal("Commit after Close succeeded")
	}
}

func TestTypeAndPolicyStrings(t *testing.T) {
	want := map[Type]string{
		RecAdd: "add", RecSub: "sub",
		RecKeyedAdd: "keyed-add", RecKeyedSub: "keyed-sub",
		RecPartial: "partial", RecKeyedEnvelope: "keyed-envelope",
		RecReset: "reset", RecKeyedJSON: "keyed-json",
		Type(200): "wal.Type(200)",
	}
	for typ, s := range want {
		if got := typ.String(); got != s {
			t.Errorf("Type(%d).String() = %q, want %q", uint8(typ), got, s)
		}
	}
	pols := map[Policy]string{
		PolicyAlways: "always", PolicyInterval: "interval", PolicyOff: "off",
		Policy(9): "wal.Policy(9)",
	}
	for pol, s := range pols {
		if got := pol.String(); got != s {
			t.Errorf("Policy(%d).String() = %q, want %q", int(pol), got, s)
		}
	}
}

// A snapshot with a valid header but flipped payload byte must fail its
// CRC and be skipped in favor of a full replay — the mid-file twin of
// TestCorruptSnapshotFallsBack's truncated-header case.
func TestSnapshotCRCMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	l.AppendBatch([]float64{1, 2}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{Global: []byte("g"), Tokens: []string{"tok"}}); err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([]float64{3}, false)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var snapPath string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == snapSuffix {
			snapPath = filepath.Join(dir, e.Name())
		}
	}
	if snapPath == "" {
		t.Fatal("no snapshot written")
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	if rec.Stats.SnapshotLoaded {
		t.Fatal("CRC-broken snapshot loaded")
	}
	// The pre-snapshot segment was truncated away when the snapshot was
	// written, so a fallback replay sees only the tail records. Losing a
	// snapshot to corruption after truncation is detectable, not
	// silently wrong: recovery reports no snapshot.
	checkRecovered(t, rec.Records, []Record{{Type: RecAdd, Values: []float64{3}}})
}

// TestReplayMemoryBounded is the streaming guard: recovering a 32 MiB
// journal of 1024-value records must allocate on the order of one reader
// buffer plus the largest frame, not on the order of the journal.
func TestReplayMemoryBounded(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff, SegBytes: 4 << 20})
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i) + 0.5
	}
	const journalBytes = 32 << 20
	records := 0
	for l.Metrics().Bytes < journalBytes {
		for i := 0; i < 16; i++ {
			l.AppendBatch(xs, false)
			records++
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if m := l.Metrics(); m.Segments < 4 {
		t.Fatalf("journal spans %d segments, want several", m.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	counted := 0
	opt := Options{Dir: dir, Fsync: PolicyOff, OnRecord: func(r Record) error {
		if len(r.Values) != len(xs) {
			t.Errorf("record %d has %d values, want %d", counted, len(r.Values), len(xs))
		}
		counted++
		return nil
	}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l2, rec, err := Open(opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if counted != records || rec.Stats.Records != records || rec.Stats.Torn {
		t.Fatalf("replayed %d records (stats %+v), want %d", counted, rec.Stats, records)
	}
	frame := uint64(frameHeaderLen + 1 + 2 + 8*len(xs)) // type, varint(1024), values
	limit := 4 * (frame + readBufSize)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("Open allocated %d bytes replaying %d records in %d segments", grew, records, rec.Stats.Segments)
	if grew > limit {
		t.Fatalf("Open allocated %d bytes replaying a %d-byte journal; want <= %d (4 x (frame %d + reader buffer %d))",
			grew, journalBytes, limit, frame, readBufSize)
	}
}

// dirBytes reads every file in dir, for comparing directory states.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = data
	}
	return state
}

// TestReplayHookErrorLeavesDirUntouched: a hook error aborts Open with
// the failing record's index, before the torn tail is truncated or any
// stale file is deleted.
func TestReplayHookErrorLeavesDirUntouched(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff, SegBytes: 1})
	if err := l.WriteSnapshot(&Snapshot{Global: []byte{0xC7}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.AppendBatch([]float64{float64(i)}, false)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// A torn tail on the newest segment and a junk snapshot that a
	// successful Open would truncate and delete.
	ents, _ := os.ReadDir(dir)
	newest := ""
	for _, e := range ents {
		if filepath.Ext(e.Name()) == segSuffix && e.Name() > newest {
			newest = e.Name()
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, snapName(99)), []byte("PSWSjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := dirBytes(t, dir)

	boom := errors.New("boom")
	seen := 0
	_, _, err = Open(Options{Dir: dir, OnRecord: func(Record) error {
		if seen == 1 {
			return boom
		}
		seen++
		return nil
	}})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "record 1 ") {
		t.Fatalf("record hook error surfaced as %v, want boom naming record 1", err)
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("a failed record replay changed the WAL directory")
	}

	_, _, err = Open(Options{Dir: dir, OnSnapshot: func(*Snapshot) error { return boom }})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("snapshot hook error surfaced as %v, want boom naming the snapshot", err)
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("a failed snapshot replay changed the WAL directory")
	}

	// With no failing hook the same directory recovers and is repaired.
	_, rec := mustOpen(t, Options{Dir: dir})
	if !rec.Stats.SnapshotLoaded || !rec.Stats.Torn || len(rec.Records) != 3 {
		t.Fatalf("recovery after the failed attempts: %+v, %d records", rec.Stats, len(rec.Records))
	}
}

// TestFramesLargerThanReaderBuffer replays frames that straddle and
// exceed the reader buffer, then a copy torn inside the last payload.
func TestFramesLargerThanReaderBuffer(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: PolicyOff})
	var want []Record
	for _, n := range []int{readBufSize/8 - 3, readBufSize/8 + 512, 3 * readBufSize / 8} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n*i) + 0.25
		}
		want = append(want, Record{Type: RecAdd, Values: xs})
		l.AppendBatch(xs, false)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	checkRecovered(t, rec.Records, want)

	tdir := t.TempDir()
	writeSeg(t, tdir, 1, full[:len(full)-readBufSize])
	_, rec = mustOpen(t, Options{Dir: tdir})
	checkRecovered(t, rec.Records, want[:2])
	lastFrame := int64(frameHeaderLen + 1 + 2 + 8*len(want[2].Values))
	if !rec.Stats.Torn || rec.Stats.TruncatedBytes != lastFrame-readBufSize {
		t.Fatalf("torn big frame: %+v, want %d bytes truncated", rec.Stats, lastFrame-readBufSize)
	}
}
