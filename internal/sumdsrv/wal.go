package sumdsrv

// Durability wiring: the glue between the HTTP surface and internal/wal.
//
// Every state-mutating request is journaled and committed before its 200
// is written, so "acknowledged" implies "recoverable". The two ingestion
// paths meet the journal differently:
//
//   - Raw value batches (/v1/add, /v1/sub) cannot fail validation once
//     decoded, so the sync path journals first and applies second — and
//     applies even when the commit fails, because the frame stays
//     pending in the log and the next successful commit writes it; the
//     request then gets a 500 saying the batch was applied. In async
//     mode the walSink wrapper journals each flush group and commits
//     once per flush — the batcher's group commit doubles as a group
//     fsync.
//   - Partial/envelope pushes validate inside the accumulator merge, so
//     they apply first (keeping garbage out of the log) and journal the
//     already-accepted blob second.
//
// Both orders preserve the contract: an acknowledged mutation is in the
// log; an unacknowledged one may land on either side of a crash.
//
// applyMu serializes mutations against whole-state captures: every
// journal+apply pair holds it shared, while reset and snapshot capture
// hold it exclusively, so a snapshot is a clean cut of the history —
// everything journaled before the snapshot's base segment is inside it,
// everything after replays on top.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/wal"
)

// maxIdemToken bounds the Idempotency-Key header; longer tokens are
// rejected at the network edge (the journal's own token bound is higher,
// so an accepted token always round-trips through recovery).
const maxIdemToken = 256

// tokenWindow is the bounded idempotency-dedup window: the most recent
// cap tokens from acknowledged partial pushes. A retried push whose
// token is still in the window is answered 200 without re-merging, so a
// client that lost a response cannot double-apply a partial. Tokens ride
// the journal and snapshots, so the window survives recovery, and they
// deliberately survive /v1/reset: a pre-reset push retried after the
// reset must not re-apply state the reset wiped.
type tokenWindow struct {
	mu   sync.Mutex
	cap  int
	set  map[string]struct{}
	fifo []string // oldest first
}

func newTokenWindow(capacity int) *tokenWindow {
	return &tokenWindow{cap: capacity, set: make(map[string]struct{}, capacity)}
}

// reserve claims tok, evicting the oldest entry when full. It reports
// false when tok is already in the window (a duplicate).
func (t *tokenWindow) reserve(tok string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.set[tok]; dup {
		return false
	}
	if len(t.fifo) >= t.cap {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.set, old)
	}
	t.set[tok] = struct{}{}
	t.fifo = append(t.fifo, tok)
	return true
}

// release drops a reservation made for a push that then failed, so a
// corrected retry with the same token is not treated as a duplicate.
func (t *tokenWindow) release(tok string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.set[tok]; !ok {
		return
	}
	delete(t.set, tok)
	for i := len(t.fifo) - 1; i >= 0; i-- { // newest first: releases undo fresh reservations
		if t.fifo[i] == tok {
			t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
			break
		}
	}
}

// snapshot copies the window, oldest first, for inclusion in a WAL
// snapshot.
func (t *tokenWindow) snapshot() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.fifo))
	copy(out, t.fifo)
	return out
}

// load seeds the window from a recovered snapshot (oldest first).
func (t *tokenWindow) load(toks []string) {
	for _, tok := range toks {
		t.reserve(tok)
	}
}

// WALStats is the journal's health and recovery report inside
// StatsResponse (WAL-enabled servers only). The counter fields are
// monotone over the process lifetime, like every other stats counter.
type WALStats struct {
	Fsync     string `json:"fsync"`
	Records   int64  `json:"records"`
	Bytes     int64  `json:"bytes"`
	Commits   int64  `json:"commits"`
	Fsyncs    int64  `json:"fsyncs"`
	Rotations int64  `json:"rotations"`
	Snapshots int64  `json:"snapshots"`
	Errors    int64  `json:"errors"`
	Segments  int64  `json:"segments"`
	LastError string `json:"last_error,omitempty"`

	Recovery WALRecovery `json:"recovery"`
}

// WALRecovery describes what Open found when this process started.
type WALRecovery struct {
	SnapshotLoaded bool    `json:"snapshot_loaded"`
	Segments       int     `json:"segments"`
	Records        int     `json:"records"`
	TruncatedBytes int64   `json:"truncated_bytes"`
	Torn           bool    `json:"torn"`
	DurationMS     float64 `json:"duration_ms"` // wall time of the whole replay
}

func newWALRecovery(st wal.RecoveryStats) WALRecovery {
	return WALRecovery{
		SnapshotLoaded: st.SnapshotLoaded,
		Segments:       st.Segments,
		Records:        st.Records,
		TruncatedBytes: st.TruncatedBytes,
		Torn:           st.Torn,
		DurationMS:     float64(st.Duration) / float64(time.Millisecond),
	}
}

// mergedResponse is the POST /v1/partial and /v1/keyed/partial payload.
// Duplicate marks a retry answered from the idempotency window: the
// original push is already applied, nothing was merged again.
type mergedResponse struct {
	Merged    int  `json:"merged"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// reserveIdem claims the request's Idempotency-Key token. ok=false means
// the response has already been written — either a 400 (over-long token)
// or the duplicate short-circuit. The empty token means "no idempotency
// requested" and is never deduplicated.
func (s *Server) reserveIdem(w http.ResponseWriter, tok string) (string, bool) {
	if tok == "" {
		return "", true
	}
	if len(tok) > maxIdemToken {
		writeError(w, http.StatusBadRequest, fmt.Errorf("idempotency token length %d exceeds limit %d", len(tok), maxIdemToken))
		return "", false
	}
	if s.tokens != nil && !s.tokens.reserve(tok) {
		s.st.bump(&s.st.deduped)
		writeJSON(w, http.StatusOK, mergedResponse{Merged: 0, Duplicate: true})
		return "", false
	}
	return tok, true
}

// releaseIdem undoes a reservation after the push it covered failed.
func (s *Server) releaseIdem(tok string) {
	if tok != "" && s.tokens != nil {
		s.tokens.release(tok)
	}
}

// journalBlob appends one already-applied blob record and commits. The
// caller holds applyMu (shared). A nil error means the record is durable
// per the fsync policy.
func (s *Server) journalBlob(t wal.Type, tok string, blob []byte) error {
	if s.wal == nil {
		return nil
	}
	s.wal.AppendBlob(t, tok, blob)
	if err := s.wal.Commit(); err != nil {
		return fmt.Errorf("merged but journal commit failed: %w", err)
	}
	return nil
}

// noteMutations advances the snapshot trigger counter.
func (s *Server) noteMutations(n int64) {
	if s.wal != nil {
		s.walSince.Add(n)
	}
}

// maybeSnapshot writes a WAL snapshot when enough mutations accumulated
// since the last one. It takes applyMu exclusively, so the captured
// state is a clean cut; call it only from request goroutines that hold
// no locks (never from inside a flush, which runs under applyMu shared).
func (s *Server) maybeSnapshot() {
	if s.wal == nil || s.snapEvery <= 0 || s.walSince.Load() < s.snapEvery {
		return
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.walSince.Load() < s.snapEvery { // lost the race to another snapshotter
		return
	}
	snap, err := s.captureState()
	if err != nil {
		return // engines that cannot snapshot were rejected by New
	}
	if err := s.wal.WriteSnapshot(snap); err != nil {
		return // counted in the journal's error ledger
	}
	s.walSince.Store(0)
}

// captureState serializes the full service state. Callers hold applyMu
// exclusively.
func (s *Server) captureState() (*wal.Snapshot, error) {
	global, err := s.sh.SnapshotBytes()
	if err != nil {
		return nil, err
	}
	keyedBlob, err := s.keyed.ExportAll()
	if err != nil {
		return nil, err
	}
	snap := &wal.Snapshot{Global: global, Keyed: keyedBlob}
	if s.tokens != nil {
		snap.Tokens = s.tokens.snapshot()
	}
	return snap, nil
}

// applySnapshot and applyRecord are New's wal.Open replay hooks: the
// snapshot seeds the fresh server first, then each journaled record is
// applied as the scan reads it. Replay errors are construction errors —
// they mean the directory belongs to a different configuration (e.g.
// another engine), and silently dropping records would break the
// durability contract.
func (s *Server) applySnapshot(snap *wal.Snapshot) error {
	if len(snap.Global) > 0 {
		if err := s.sh.MergeBytes(snap.Global); err != nil {
			return fmt.Errorf("global state: %w", err)
		}
	}
	if len(snap.Keyed) > 0 {
		if err := s.keyed.ImportMerge(snap.Keyed); err != nil {
			return fmt.Errorf("keyed state: %w", err)
		}
	}
	if s.tokens != nil {
		s.tokens.load(snap.Tokens)
	}
	return nil
}

// applyRecord replays one journaled mutation. r.Values and r.Blob alias
// the scanner's buffers, so nothing here may keep them: the stores fold
// values in and decode blobs into their own state, and tokens and keys
// are string copies.
func (s *Server) applyRecord(r wal.Record) error {
	switch r.Type {
	case wal.RecAdd:
		s.sh.AddBatch(r.Values)
	case wal.RecSub:
		if !s.sh.Invertible() {
			return fmt.Errorf("engine %q cannot replay deletions", s.sh.Engine())
		}
		s.sh.SubBatch(r.Values)
	case wal.RecKeyedAdd, wal.RecKeyedSub:
		if err := checkRecKey(r.Key); err != nil {
			return err
		}
		if r.Type == wal.RecKeyedSub {
			if !s.keyed.Invertible() {
				return fmt.Errorf("engine %q cannot replay keyed deletions", s.keyed.Engine())
			}
			s.keyed.Sub(r.Key, r.Values)
		} else {
			s.keyed.Add(r.Key, r.Values)
		}
	case wal.RecPartial:
		if err := s.sh.MergeBytes(r.Blob); err != nil {
			return err
		}
		s.reserveReplayed(r.Token)
	case wal.RecKeyedEnvelope:
		if err := s.keyed.ImportMerge(r.Blob); err != nil {
			return err
		}
		s.reserveReplayed(r.Token)
	case wal.RecKeyedJSON:
		var req KeyedPartialsRequest
		if err := json.Unmarshal(r.Blob, &req); err != nil {
			return err
		}
		if err := s.keyed.MergeKeyPartials(req.Partials); err != nil {
			return err
		}
		s.reserveReplayed(r.Token)
	case wal.RecReset:
		s.sh.Reset()
		s.keyed.Reset()
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	return nil
}

func (s *Server) reserveReplayed(tok string) {
	if tok != "" && s.tokens != nil {
		s.tokens.reserve(tok)
	}
}

func checkRecKey(key string) error {
	if key == "" {
		return fmt.Errorf("keyed record with empty key")
	}
	if len(key) > parsum.MaxKeyLen {
		return fmt.Errorf("keyed record key length %d exceeds limit %d", len(key), parsum.MaxKeyLen)
	}
	return nil
}

// walSink interposes the journal between the batcher and the real sink.
// Each flush group is journaled and committed in one Commit before it is
// applied — group commit in the batcher is group commit in the journal —
// and the whole journal+apply pair holds applyMu shared so snapshots cut
// between flushes, never through one. A journal-commit failure here
// cannot fail the flush (the batch API has no error path back to the
// waiting requests); it is recorded on the journal's error ledger and
// surfaces as sumd_wal_errors_total.
type walSink struct {
	s     *Server
	inner batch.Sink
	slice batch.SliceSink // non-nil when inner batches natively
}

func (ws walSink) AddBatch(xs []float64) {
	ws.s.applyMu.RLock()
	ws.s.wal.AppendBatch(xs, false)
	_ = ws.s.wal.Commit()
	ws.inner.AddBatch(xs)
	ws.s.applyMu.RUnlock()
	ws.s.walSince.Add(1)
}

func (ws walSink) SubBatch(xs []float64) {
	ws.s.applyMu.RLock()
	ws.s.wal.AppendBatch(xs, true)
	_ = ws.s.wal.Commit()
	ws.inner.SubBatch(xs)
	ws.s.applyMu.RUnlock()
	ws.s.walSince.Add(1)
}

func (ws walSink) AddBatches(batches [][]float64) {
	ws.s.applyMu.RLock()
	for _, xs := range batches {
		ws.s.wal.AppendBatch(xs, false)
	}
	_ = ws.s.wal.Commit()
	if ws.slice != nil {
		ws.slice.AddBatches(batches)
	} else {
		for _, xs := range batches {
			ws.inner.AddBatch(xs)
		}
	}
	ws.s.applyMu.RUnlock()
	ws.s.walSince.Add(int64(len(batches)))
}

func (ws walSink) SubBatches(batches [][]float64) {
	ws.s.applyMu.RLock()
	for _, xs := range batches {
		ws.s.wal.AppendBatch(xs, true)
	}
	_ = ws.s.wal.Commit()
	if ws.slice != nil {
		ws.slice.SubBatches(batches)
	} else {
		for _, xs := range batches {
			ws.inner.SubBatch(xs)
		}
	}
	ws.s.applyMu.RUnlock()
	ws.s.walSince.Add(int64(len(batches)))
}

// walKeyedSink extends walSink with the keyed flush path. It exists as a
// separate type so that wrapping a sink that does NOT implement the
// keyed interface yields a wrapper that does not either — the batcher's
// 501 contract for keyed-less sinks must survive the journal interposer.
type walKeyedSink struct {
	walSink
	keyed batch.KeyedSink
}

func (ws walKeyedSink) AddKeyedBatches(batches []parsum.KeyedBatch) {
	ws.s.applyMu.RLock()
	for _, b := range batches {
		ws.s.wal.AppendKeyed(b.Key, b.Values, false)
	}
	_ = ws.s.wal.Commit()
	ws.keyed.AddKeyedBatches(batches)
	ws.s.applyMu.RUnlock()
	ws.s.walSince.Add(int64(len(batches)))
}

func (ws walKeyedSink) SubKeyedBatches(batches []parsum.KeyedBatch) {
	ws.s.applyMu.RLock()
	for _, b := range batches {
		ws.s.wal.AppendKeyed(b.Key, b.Values, true)
	}
	_ = ws.s.wal.Commit()
	ws.keyed.SubKeyedBatches(batches)
	ws.s.applyMu.RUnlock()
	ws.s.walSince.Add(int64(len(batches)))
}
