// Package sumdsrv implements the HTTP merge service behind cmd/sumd: a
// network-facing reducer backed by a parsum.Sharded accumulator. Workers
// anywhere combine their slice of the input locally (the paper's map-side
// combiner), serialize the exact partial with the versioned wire codec,
// and POST it here; the service merges partials carry-free and rounds once
// when a sum is requested. Because every exchange is an exact
// superaccumulator partial, the served sum is bit-identical to summing the
// concatenated input sequentially — regardless of how the input was
// partitioned across workers, the order partials arrive, or how many
// shards the service runs.
//
// Endpoints (all under /v1, plus the conventional /metrics):
//
//	POST /v1/add      raw little-endian float64s (application/octet-stream)
//	                  or JSON {"values":[...]} — ingest values directly
//	POST /v1/sub      same body formats — delete previously ingested values
//	                  exactly (the superaccumulator group inverse); the
//	                  served sum is bit-identical to summing the surviving
//	                  multiset from scratch
//	POST /v1/partial  a wire partial (Accumulator.MarshalBinary /
//	                  Sharded.SnapshotBytes) — merge a remote partial
//	GET  /v1/partial  the service's own state as a wire partial, so sumd
//	                  instances can chain into reduction trees
//	GET  /v1/sum      {"sum":"<decimal>","bits":"<hex>",...} — rounded once
//	POST /v1/reset    empty the accumulator
//	GET  /v1/stats    ingestion counters (JSON; includes the async
//	                  batcher's counters when async mode is on)
//	GET  /v1/healthz  liveness + configuration; 503 while durability is
//	                  degraded (a WAL write or fsync failure not yet
//	                  followed by a durable success)
//	GET  /v1/readyz   the same degradation check as a terse text probe
//	GET  /metrics     the same counters in Prometheus text format
//
// Malformed payloads are rejected with 400 (decode error) or 409 (engine
// mismatch) and never disturb accumulated state; bodies are size-capped.
//
// # Async ingestion
//
// With Options.Async, /v1/add and /v1/sub stop walking the accumulator
// under the request goroutine and instead enqueue into an internal/batch
// Batcher: a bounded queue whose flusher takes everything already queued
// (up to Options.MaxBatch values) the moment it is free, so requests
// that arrive during one flush's apply and journal commit form the next
// group. The flusher journals and applies the group through the same
// function a sync write uses (see apply), with one commit per group, and
// the handler answers with the flush's outcome: 200 once its values are
// applied and committed, the sync path's 500 when they are applied but
// the commit failed. So "accepted" still means "applied and durable",
// and the exactness guarantee is unchanged — batching only regroups
// additions inside a commutative group. When the queue is full the
// request is rejected immediately with 429 and "Retry-After: 1",
// accumulated state untouched, so ingest overload degrades to shed load
// rather than to unbounded queueing.
package sumdsrv

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/engine"
	"parsum/internal/shard"
	"parsum/internal/wal"
)

// MaxBodyBytes is the default request-body cap (64 MiB ≈ 8M float64s per
// batch); Options.MaxBodyBytes overrides it per server.
const MaxBodyBytes = 64 << 20

// Options configures a Server; the zero value is ready to use (dense
// engine, one shard per P, 64 MiB body cap).
type Options struct {
	// Engine names the summation engine backing the service; "" means
	// dense. It must be streaming, deterministic-parallel, and
	// wire-marshalable (the three superaccumulator engines qualify).
	Engine string
	// Shards is the writer-stripe count of the backing Sharded; 0 means
	// GOMAXPROCS.
	Shards int
	// MaxBodyBytes caps every request body; a request exceeding it gets
	// 413 and never disturbs accumulated state. 0 means the MaxBodyBytes
	// constant; negative is rejected by New.
	MaxBodyBytes int64
	// KeyPartitions is the partition count of the keyed store behind the
	// key-addressed endpoints (/v1/add with a key, /v1/sum?key=,
	// /v1/keyed/partial); 0 means GOMAXPROCS. The keyed store shares the
	// server's engine.
	KeyPartitions int
	// Async routes /v1/add and /v1/sub through the batched ingestion
	// front-end (see the package comment). Off by default. The batcher
	// pays where every commit fsyncs (WALFsync "always"), because a
	// flush commits its whole group once; elsewhere sync ingest is
	// faster.
	Async bool
	// QueueLen, MaxBatch and Flushers configure the batcher when Async
	// is set (0 means the internal/batch defaults: 256 requests, 4096
	// values, 1 flusher). Ignored in sync mode.
	QueueLen int
	MaxBatch int
	Flushers int
	// WrapSink, when non-nil, wraps the accumulator that raw batches
	// are applied to, in sync and async mode alike. Test seam: e2e tests
	// interpose a gated sink to hold a flush open and pin the full-queue
	// 429 contract deterministically. The result must also implement
	// batch.SliceSink and batch.KeyedSink; New rejects one that does not.
	WrapSink func(batch.Sink) batch.Sink
	// WALDir enables the write-ahead log: every state-mutating request
	// is journaled to this directory and committed before it is
	// acknowledged, and New replays the directory so the server restarts
	// with its pre-crash state. Empty disables durability (the previous
	// behaviour).
	WALDir string
	// WALFsync is the journal's fsync policy: "always" (the default —
	// fsync before every ack), "interval" (background fsync; a machine
	// crash can lose the last ~100ms), or "off" (page-cache durability
	// only: safe across process crashes, not machine crashes).
	WALFsync string
	// WALSegBytes is the journal's segment rotation threshold in bytes
	// (0 = 64 MiB).
	WALSegBytes int64
	// WALSnapshotEvery writes a state snapshot — truncating the replayed
	// log — every N journaled mutations; 0 disables automatic snapshots
	// (the log then grows until the process writes one some other way).
	WALSnapshotEvery int
	// DedupWindow caps the idempotency window remembering the
	// Idempotency-Key tokens of recently acknowledged partial pushes, so
	// a client retrying a push whose response was lost cannot
	// double-apply it. 0 means 1024 tokens; negative is rejected by New.
	DedupWindow int
}

// counters is the server-level ingestion ledger. One mutex guards every
// field and Snapshot copies them under the same mutex, so a /v1/stats
// response can never tear — e.g. report a batch whose values are not
// counted yet. (These were independent atomics once; a scrape landing
// between two atomic increments could observe batches > 0 with values
// still 0.)
//
// Every field is a monotone process-lifetime counter: POST /v1/reset
// wipes accumulated *state*, never the ledger. Prometheus rate() and
// increase() stay correct across resets, and the only event that may
// legitimately move a sumd_*_total series backwards is a process
// restart (which scrapers already treat as a counter reset).
type counters struct {
	mu         sync.Mutex
	values     int64 // raw float64s ingested via keyless /v1/add
	batches    int64 // keyless /v1/add requests
	removed    int64 // raw float64s deleted via keyless /v1/sub
	subBatches int64 // keyless /v1/sub requests
	partials   int64 // wire partials merged via POST /v1/partial
	sums       int64 // /v1/sum and GET /v1/partial responses
	rejected   int64 // /v1/add + /v1/sub requests shed with 429
	deduped    int64 // partial pushes answered from the idempotency window

	keyedValues     int64 // raw float64s ingested via keyed /v1/add
	keyedBatches    int64 // keyed /v1/add requests
	keyedRemoved    int64 // raw float64s deleted via keyed /v1/sub
	keyedSubBatches int64 // keyed /v1/sub requests
	keyedPartials   int64 // keys merged via POST /v1/keyed/partial
	keyedSums       int64 // keyed sum / keyed partial-export responses
}

func (c *counters) addBatch(n int, keyed bool) {
	c.mu.Lock()
	if keyed {
		c.keyedBatches++
		c.keyedValues += int64(n)
	} else {
		c.batches++
		c.values += int64(n)
	}
	c.mu.Unlock()
}

func (c *counters) subBatch(n int, keyed bool) {
	c.mu.Lock()
	if keyed {
		c.keyedSubBatches++
		c.keyedRemoved += int64(n)
	} else {
		c.subBatches++
		c.removed += int64(n)
	}
	c.mu.Unlock()
}

func (c *counters) addKeyedPartials(n int) {
	c.mu.Lock()
	c.keyedPartials += int64(n)
	c.mu.Unlock()
}

func (c *counters) bump(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// counterSnap is a consistent copy of the ledger (no lock inside, so it
// can be passed around by value).
type counterSnap struct {
	values, batches, removed, subBatches, partials, sums, rejected,
	deduped int64

	keyedValues, keyedBatches, keyedRemoved, keyedSubBatches,
	keyedPartials, keyedSums int64
}

func (c *counters) snapshot() counterSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return counterSnap{
		values: c.values, batches: c.batches,
		removed: c.removed, subBatches: c.subBatches,
		partials: c.partials, sums: c.sums, rejected: c.rejected,
		deduped:     c.deduped,
		keyedValues: c.keyedValues, keyedBatches: c.keyedBatches,
		keyedRemoved: c.keyedRemoved, keyedSubBatches: c.keyedSubBatches,
		keyedPartials: c.keyedPartials, keyedSums: c.keyedSums,
	}
}

// Server is the merge service. It implements http.Handler and is safe for
// concurrent use.
type Server struct {
	sh      *parsum.Sharded
	keyed   *parsum.Keyed
	sink    fullSink       // sh and keyed, as Options.WrapSink left them
	bat     *batch.Batcher // nil in sync mode
	start   time.Time
	maxBody int64

	// Durability (nil / zero when Options.WALDir is empty). applyMu is
	// held shared around every journal+apply pair and exclusively by
	// reset and snapshot capture; see internal/sumdsrv/wal.go.
	wal       *wal.Log
	applyMu   sync.RWMutex
	walSince  atomic.Int64 // mutations journaled since the last snapshot
	snapEvery int64
	walFsync  wal.Policy
	recovery  WALRecovery

	// tokens is the idempotency-dedup window. It is never nil and is
	// kept even without a WAL: response-loss retries are a transport
	// hazard, not a crash hazard.
	tokens *tokenWindow

	st counters
}

// New returns a Server backed by a fresh Sharded accumulator. It errors
// when the engine cannot back a deterministic sharded accumulator or its
// partials cannot cross the wire.
func New(opt Options) (*Server, error) {
	if opt.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("sumd: negative body cap %d", opt.MaxBodyBytes)
	}
	if opt.DedupWindow < 0 {
		return nil, fmt.Errorf("sumd: negative dedup window %d", opt.DedupWindow)
	}
	maxBody := opt.MaxBodyBytes
	if maxBody == 0 {
		maxBody = MaxBodyBytes
	}
	dedup := opt.DedupWindow
	if dedup == 0 {
		dedup = 1024
	}
	sh, err := parsum.NewSharded(parsum.ShardedOptions{Engine: opt.Engine, Shards: opt.Shards})
	if err != nil {
		return nil, err
	}
	// Fail at construction, not first snapshot, if partials cannot ship.
	if e, _ := engine.Get(sh.Engine()); !engine.CanMarshal(e) {
		return nil, fmt.Errorf("sumd: engine %q cannot serve wire partials", sh.Engine())
	}
	ks, err := parsum.NewKeyed(parsum.KeyedOptions{Engine: opt.Engine, Partitions: opt.KeyPartitions})
	if err != nil {
		return nil, err
	}
	var sink batch.Sink = dualSink{sh: sh, keyed: ks}
	if opt.WrapSink != nil {
		sink = opt.WrapSink(sink)
	}
	full, ok := sink.(fullSink)
	if !ok {
		return nil, fmt.Errorf("sumd: WrapSink returned %T, which lacks batch.SliceSink or batch.KeyedSink", sink)
	}
	s := &Server{sh: sh, keyed: ks, sink: full, start: time.Now(), maxBody: maxBody, tokens: newTokenWindow(dedup)}
	if opt.WALDir != "" {
		pol, err := wal.ParsePolicy(opt.WALFsync)
		if err != nil {
			return nil, err
		}
		wlog, recovered, err := wal.Open(wal.Options{
			Dir: opt.WALDir, SegBytes: opt.WALSegBytes, Fsync: pol,
			OnSnapshot: s.applySnapshot, OnRecord: s.applyRecord,
		})
		if err != nil {
			return nil, err
		}
		s.walFsync = pol
		s.snapEvery = int64(opt.WALSnapshotEvery)
		s.recovery = newWALRecovery(recovered.Stats)
		// Arm the journal only after replay: recovery applies records
		// that are already in the log.
		s.wal = wlog
	}
	if opt.Async {
		// One queue and one group-commit flush serve plain and keyed
		// traffic alike.
		s.bat = batch.New(s.apply, batch.Options{
			QueueLen: opt.QueueLen,
			MaxBatch: opt.MaxBatch,
			Flushers: opt.Flushers,
		})
	}
	return s, nil
}

// route is a Server handler as a method expression, so the route table
// is built once per process and shared by every Server.
type route func(*Server, http.ResponseWriter, *http.Request)

// ServeHTTP exists only so a route can sit in a ServeMux: Server.ServeHTTP
// calls each route with its own receiver, never through this method.
func (route) ServeHTTP(http.ResponseWriter, *http.Request) {
	panic("sumdsrv: route served without its Server")
}

// routes is the route table every Server dispatches through.
var routes = func() *http.ServeMux {
	m := http.NewServeMux()
	for pat, h := range map[string]route{
		"POST /v1/add":           (*Server).handleAdd,
		"POST /v1/sub":           (*Server).handleSub,
		"POST /v1/partial":       (*Server).handlePushPartial,
		"GET /v1/partial":        (*Server).handleGetPartial,
		"GET /v1/sum":            (*Server).handleSum,
		"POST /v1/reset":         (*Server).handleReset,
		"GET /v1/stats":          (*Server).handleStats,
		"GET /v1/healthz":        (*Server).handleHealthz,
		"GET /v1/readyz":         (*Server).handleReadyz,
		"GET /metrics":           (*Server).handleMetrics,
		"GET /v1/keys":           (*Server).handleKeys,
		"POST /v1/keyed/partial": (*Server).handlePushKeyed,
		"GET /v1/keyed/partial":  (*Server).handleGetKeyed,
	} {
		m.Handle(pat, h)
	}
	return m
}()

// fullSink is the surface apply writes a group to.
type fullSink interface {
	batch.SliceSink
	batch.KeyedSink
}

// dualSink is the server's sink: the global Sharded accumulator (Sink +
// SliceSink) joined with the keyed store (KeyedSink).
type dualSink struct {
	sh    *parsum.Sharded
	keyed *parsum.Keyed
}

func (d dualSink) AddBatch(xs []float64)                  { d.sh.AddBatch(xs) }
func (d dualSink) SubBatch(xs []float64)                  { d.sh.SubBatch(xs) }
func (d dualSink) AddBatches(batches [][]float64)         { d.sh.AddBatches(batches) }
func (d dualSink) SubBatches(batches [][]float64)         { d.sh.SubBatches(batches) }
func (d dualSink) AddKeyedBatches(bs []parsum.KeyedBatch) { d.keyed.AddKeyedBatches(bs) }
func (d dualSink) SubKeyedBatches(bs []parsum.KeyedBatch) { d.keyed.SubKeyedBatches(bs) }

// Engine returns the registry name of the backing engine.
func (s *Server) Engine() string { return s.sh.Engine() }

// Async reports whether the batched ingestion front-end is on.
func (s *Server) Async() bool { return s.bat != nil }

// Durable reports whether the write-ahead log is journaling ingests.
func (s *Server) Durable() bool { return s.wal != nil }

// Recovery reports what WAL recovery found at construction (the zero
// value when the WAL is off).
func (s *Server) Recovery() WALRecovery { return s.recovery }

// Close drains and stops the async batcher (flushing every admitted
// batch) so accepted requests are never dropped on shutdown, then seals
// the journal. Safe to call more than once.
func (s *Server) Close() {
	if s.bat != nil {
		s.bat.Close()
	}
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	h, _ := routes.Handler(r)
	if rt, ok := h.(route); ok {
		rt(s, w, r)
		return
	}
	routes.ServeHTTP(w, r) // the mux's own 404, 405 and redirect answers
}

// SumResponse is the GET /v1/sum payload. Sum is the shortest decimal
// that round-trips to the exact float64 ("NaN", "+Inf", "-Inf" for
// non-finite results); Bits is its IEEE-754 bit pattern in hex — the
// field distributed bit-identity checks should compare.
type SumResponse struct {
	Sum    string `json:"sum"`
	Bits   string `json:"bits"`
	Engine string `json:"engine"`
	Shards int    `json:"shards"`
	// Key names the keyed-store entry this sum belongs to; empty for the
	// global sum.
	Key string `json:"key,omitempty"`
}

// StatsResponse is the GET /v1/stats payload. The server-level counters
// are one consistent snapshot (taken under one lock); Async, when
// present, is a second consistent snapshot of the batcher's ledger.
//
// Every counter is monotone over the process lifetime: POST /v1/reset
// clears accumulated state, not the ledger. Only a process restart
// starts the counters over.
type StatsResponse struct {
	Engine        string      `json:"engine"`
	Shards        int         `json:"shards"`
	Values        int64       `json:"values"`
	Batches       int64       `json:"batches"`
	Removed       int64       `json:"removed"`
	SubBatches    int64       `json:"sub_batches"`
	Partials      int64       `json:"partials"`
	SumsServed    int64       `json:"sums_served"`
	Rejected      int64       `json:"rejected"`
	Deduped       int64       `json:"deduped"`
	UptimeSeconds int64       `json:"uptime_seconds"`
	Keyed         KeyedStats  `json:"keyed"`
	Async         *AsyncStats `json:"async,omitempty"`
	WAL           *WALStats   `json:"wal,omitempty"`
}

// KeyedStats is the keyed store's configuration and counter snapshot
// inside StatsResponse.
type KeyedStats struct {
	Partitions int   `json:"partitions"`
	Keys       int   `json:"keys"`
	Values     int64 `json:"values"`
	Batches    int64 `json:"batches"`
	Removed    int64 `json:"removed"`
	SubBatches int64 `json:"sub_batches"`
	Partials   int64 `json:"partials"`
	SumsServed int64 `json:"sums_served"`
}

// AsyncStats is the batcher's configuration and counter snapshot inside
// StatsResponse (async mode only). Flushes == SizeFlushes + DrainFlushes.
//
// DeadlineFlushes repeats DrainFlushes. It is the old linger's name for
// a flush that shipped fewer than MaxBatch values, and it stays only
// because benchmark/metrics.go reads it as batch.deadline_share. Delete
// it when the benchmark reads DrainFlushes instead (see ROADMAP.md).
type AsyncStats struct {
	QueueLen int `json:"queue_len"`
	MaxBatch int `json:"max_batch"`
	Flushers int `json:"flushers"`

	Enqueued        int64 `json:"enqueued"`
	EnqueuedValues  int64 `json:"enqueued_values"`
	Rejected        int64 `json:"rejected"`
	Flushes         int64 `json:"flushes"`
	FlushedRequests int64 `json:"flushed_requests"`
	FlushedValues   int64 `json:"flushed_values"`
	SizeFlushes     int64 `json:"size_flushes"`
	DeadlineFlushes int64 `json:"deadline_flushes"`
	DrainFlushes    int64 `json:"drain_flushes"`
	QueueDepth      int64 `json:"queue_depth"`
	FlushNsTotal    int64 `json:"flush_ns_total"`

	KeyedEnqueued        int64 `json:"keyed_enqueued"`
	KeyedFlushedRequests int64 `json:"keyed_flushed_requests"`
}

// AddRequest is the JSON form of POST /v1/add and /v1/sub. The binary form
// (application/octet-stream, raw little-endian float64s) is preferred for
// bulk and is the only way to ship non-finite values. A non-empty Key
// routes the values into that key's accumulator in the keyed store
// instead of the global sum; the binary form carries the key in the
// ?key= query parameter instead. Setting both to different values is a
// 400.
type AddRequest struct {
	Values []float64 `json:"values"`
	Key    string    `json:"key,omitempty"`
}

// AddResponse is the POST /v1/add payload. Key echoes the target key on
// keyed requests.
type AddResponse struct {
	Added int    `json:"added"`
	Key   string `json:"key,omitempty"`
}

// SubResponse is the POST /v1/sub payload.
type SubResponse struct {
	Removed int    `json:"removed"`
	Key     string `json:"key,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// readBody drains a size-capped request body, mapping the cap being hit
// to 413 (split and retry) rather than 400 (malformed payload).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return body, true
}

// batchChunk is the read size of a binary batch body: each chunk is
// converted straight into the decoded []float64, so the body itself is
// never held whole.
const batchChunk = 4 << 10

// presizeVals bounds how far a declared Content-Length may presize a
// binary batch past the values that have actually arrived (32 KiB).
const presizeVals = 4 << 10

// DecodeBatch parses the shared /v1/add and /v1/sub body formats: raw
// little-endian float64s (application/octet-stream) or a single JSON
// {"values":[...],"key":...} document, and resolves the target key from
// the ?key= query parameter and/or the JSON field. Binary bodies decode
// chunk by chunk straight into the result. DecodeBatch writes the error
// response itself and reports ok = false: 413 when the body hits its
// http.MaxBytesReader cap, 400 for a malformed payload. sumproxy decodes
// its writes through it too, so both services accept the same bodies.
func DecodeBatch(w http.ResponseWriter, r *http.Request) (xs []float64, key string, ok bool) {
	queryKey := r.URL.Query().Get("key")
	// Content-Type may carry parameters (RFC 9110); route on the media
	// type alone.
	mediaType := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(mediaType); err == nil {
		mediaType = mt
	}
	if mediaType == "application/octet-stream" {
		xs, err := readFloats(r.Body, r.ContentLength)
		if err != nil {
			writeBodyError(w, err)
			return nil, "", false
		}
		if !checkKeyParam(w, queryKey) {
			return nil, "", false
		}
		return xs, queryKey, true
	}
	var req AddRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, fmt.Errorf("decoding JSON batch: %w", err))
		return nil, "", false
	}
	// A batch is one JSON value; trailing content would otherwise be
	// silently dropped data.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) {
			err = errors.New("trailing data after JSON batch")
		}
		writeBodyError(w, err)
		return nil, "", false
	}
	key = req.Key
	if queryKey != "" {
		if key != "" && key != queryKey {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("key %q in query disagrees with key %q in body", queryKey, key))
			return nil, "", false
		}
		key = queryKey
	}
	if !checkKeyParam(w, key) {
		return nil, "", false
	}
	return req.Values, key, true
}

// readFloats decodes a raw little-endian float64 body in batchChunk
// reads. declared is the request's Content-Length (−1 when unknown): it
// may presize the result, but never more than presizeVals values past
// what has arrived, so a forged length cannot force a large allocation;
// a body that ends short of it is malformed.
func readFloats(body io.Reader, declared int64) ([]float64, error) {
	buf := make([]byte, batchChunk)
	var xs []float64
	var n int64
	for {
		m, err := io.ReadFull(body, buf)
		n += int64(m)
		end := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !end {
			return nil, err
		}
		if m%8 != 0 {
			return nil, fmt.Errorf("binary batch length %d is not a multiple of 8", n)
		}
		if need := len(xs) + m/8; need > cap(xs) {
			c := max(need, 2*cap(xs))
			if declared >= 0 {
				c = max(need, min(int(declared/8), max(c, need+presizeVals)))
			}
			nx := make([]float64, len(xs), c)
			copy(nx, xs)
			xs = nx
		}
		for i := 0; i < m; i += 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(buf[i:])))
		}
		if end {
			break
		}
	}
	if declared >= 0 && n != declared {
		return nil, fmt.Errorf("binary batch ended after %d of %d declared bytes", n, declared)
	}
	return xs, nil
}

// writeBodyError answers a failed body read or parse: 413 when the
// size cap was hit (split and retry), 400 otherwise (malformed payload).
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
}

// checkKeyParam rejects over-length keys at the network edge with 400
// (the store itself treats them as programming errors and panics).
func checkKeyParam(w http.ResponseWriter, key string) bool {
	if len(key) > parsum.MaxKeyLen {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("key length %d exceeds limit %d", len(key), parsum.MaxKeyLen))
		return false
	}
	return true
}

// groupPool recycles the sync path's groups of one, so a sync write pays
// no allocation for its group.
var groupPool = sync.Pool{New: func() any { return new(batch.Group) }}

// ingest journals and applies one decoded batch through apply: as a
// group of one in sync mode, or through the batcher in async mode,
// waiting for its flush (group commit). A non-empty key routes to the
// keyed store. It reports whether the batch was acknowledged, writing
// the shed-load or failure response itself when not.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, key string, xs []float64, sub bool) bool {
	var err error
	switch {
	case s.bat == nil:
		g := groupPool.Get().(*batch.Group)
		g.Put(key, xs, sub)
		err = s.apply(g)
		g.Reset()
		groupPool.Put(g)
	case key != "" && sub:
		err = s.bat.SubKeyed(r.Context(), key, xs)
	case key != "":
		err = s.bat.AddKeyed(r.Context(), key, xs)
	case sub:
		err = s.bat.Sub(r.Context(), xs)
	default:
		err = s.bat.Add(r.Context(), xs)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, batch.ErrQueueFull):
		// Fail fast, state untouched: the client should back off and
		// retry. The queue frees up as soon as the running flush
		// completes, so the header's smallest whole second is enough.
		s.st.bump(&s.st.rejected)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, batch.ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Shutting down, or the client abandoned the request mid-wait:
		// an admitted batch will still be flushed, but there is nobody
		// to tell. 499-style situations get a plain 503.
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		// apply's error: the batch is applied, its commit failed.
		writeError(w, http.StatusInternalServerError, err)
	}
	return false
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	xs, key, ok := DecodeBatch(w, r)
	if !ok {
		return
	}
	if !s.ingest(w, r, key, xs, false) {
		return
	}
	s.st.addBatch(len(xs), key != "")
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, AddResponse{Added: len(xs), Key: key})
}

func (s *Server) handleSub(w http.ResponseWriter, r *http.Request) {
	if !s.sh.Invertible() {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("engine %q does not support exact deletion", s.sh.Engine()))
		return
	}
	xs, key, ok := DecodeBatch(w, r)
	if !ok {
		return
	}
	if !s.ingest(w, r, key, xs, true) {
		return
	}
	s.st.subBatch(len(xs), key != "")
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, SubResponse{Removed: len(xs), Key: key})
}

func (s *Server) handlePushPartial(w http.ResponseWriter, r *http.Request) {
	blob, ok := readBody(w, r)
	if !ok {
		return
	}
	tok, ok := s.reserveIdem(w, r.Header.Get("Idempotency-Key"))
	if !ok {
		return
	}
	// Apply-then-journal: MergeBytes validates the whole blob before
	// touching state, so only accepted partials reach the log.
	s.applyMu.RLock()
	err := s.sh.MergeBytes(blob)
	var jerr error
	if err == nil {
		jerr = s.journalBlob(wal.RecPartial, tok, blob)
	}
	s.applyMu.RUnlock()
	if err != nil {
		s.releaseIdem(tok)
		status := http.StatusBadRequest
		if errors.Is(err, shard.ErrEngineMismatch) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	if jerr != nil {
		// Applied but not durable: the token stays reserved so a retry
		// does not double-apply, and the failure is on the WAL error
		// ledger.
		writeError(w, http.StatusInternalServerError, jerr)
		return
	}
	s.st.bump(&s.st.partials)
	s.noteMutations(1)
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, mergedResponse{Merged: 1})
}

func (s *Server) handleGetPartial(w http.ResponseWriter, r *http.Request) {
	blob, err := s.sh.SnapshotBytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.st.bump(&s.st.sums)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

func (s *Server) handleSum(w http.ResponseWriter, r *http.Request) {
	if key := r.URL.Query().Get("key"); key != "" {
		if !checkKeyParam(w, key) {
			return
		}
		v, ok := s.keyed.Sum(key)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown key %q", key))
			return
		}
		s.st.bump(&s.st.keyedSums)
		writeJSON(w, http.StatusOK, SumResponse{
			Sum:    strconv.FormatFloat(v, 'g', -1, 64),
			Bits:   strconv.FormatUint(math.Float64bits(v), 16),
			Engine: s.keyed.Engine(),
			Shards: s.sh.NumShards(),
			Key:    key,
		})
		return
	}
	v := s.sh.Sum()
	s.st.bump(&s.st.sums)
	writeJSON(w, http.StatusOK, SumResponse{
		Sum:    strconv.FormatFloat(v, 'g', -1, 64),
		Bits:   strconv.FormatUint(math.Float64bits(v), 16),
		Engine: s.sh.Engine(),
		Shards: s.sh.NumShards(),
	})
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	// Exclusive: a reset must not interleave with a journal+apply pair,
	// or replay could order the wipe differently than the live process
	// did. The reset record itself is journaled so recovery wipes state
	// at the same point in the history. The idempotency window survives
	// (see tokenWindow); so do the stats counters (monotone ledger).
	s.applyMu.Lock()
	s.sh.Reset()
	s.keyed.Reset()
	if s.wal != nil {
		s.wal.AppendReset()
	}
	jerr := s.commit("reset applied")
	s.applyMu.Unlock()
	if jerr != nil {
		writeError(w, http.StatusInternalServerError, jerr)
		return
	}
	s.noteMutations(1)
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, struct {
		Reset bool `json:"reset"`
	}{Reset: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.st.snapshot()
	resp := StatsResponse{
		Engine:        s.sh.Engine(),
		Shards:        s.sh.NumShards(),
		Values:        c.values,
		Batches:       c.batches,
		Removed:       c.removed,
		SubBatches:    c.subBatches,
		Partials:      c.partials,
		SumsServed:    c.sums,
		Rejected:      c.rejected,
		Deduped:       c.deduped,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Keyed: KeyedStats{
			Partitions: s.keyed.Partitions(),
			Keys:       s.keyed.Len(),
			Values:     c.keyedValues,
			Batches:    c.keyedBatches,
			Removed:    c.keyedRemoved,
			SubBatches: c.keyedSubBatches,
			Partials:   c.keyedPartials,
			SumsServed: c.keyedSums,
		},
	}
	if s.bat != nil {
		m := s.bat.Metrics()
		o := s.bat.Options()
		resp.Async = &AsyncStats{
			QueueLen: o.QueueLen,
			MaxBatch: o.MaxBatch,
			Flushers: o.Flushers,

			Enqueued:        m.Enqueued,
			EnqueuedValues:  m.EnqueuedValues,
			Rejected:        m.Rejected,
			Flushes:         m.Flushes,
			FlushedRequests: m.FlushedRequests,
			FlushedValues:   m.FlushedValues,
			SizeFlushes:     m.SizeFlushes,
			DeadlineFlushes: m.DrainFlushes,
			DrainFlushes:    m.DrainFlushes,
			QueueDepth:      m.QueueDepth,
			FlushNsTotal:    m.FlushNs,

			KeyedEnqueued:        m.KeyedEnqueued,
			KeyedFlushedRequests: m.KeyedFlushedRequests,
		}
	}
	if s.wal != nil {
		m := s.wal.Metrics()
		resp.WAL = &WALStats{
			Fsync:     s.walFsync.String(),
			Records:   m.Records,
			Bytes:     m.Bytes,
			Commits:   m.Commits,
			Fsyncs:    m.Fsyncs,
			Rotations: m.Rotations,
			Snapshots: m.Snapshots,
			Errors:    m.Errors,
			Segments:  m.Segments,
			LastError: m.LastError,
			Recovery:  s.recovery,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves every counter in Prometheus text format. Counter
// families come from consistent snapshots (the server ledger under its
// one lock, the batcher ledger under its one lock), so no series in a
// scrape can contradict another from the same ledger.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.st.snapshot()
	var p batch.PromWriter
	p.Gauge("sumd_up", "Whether the service is serving (always 1 when scraped).", 1)
	p.Gauge("sumd_shards", "Writer-stripe count of the backing sharded accumulator.", float64(s.sh.NumShards()))
	p.Gauge("sumd_async", "Whether the batched async ingestion front-end is enabled.", b2f(s.bat != nil))
	p.Gauge("sumd_uptime_seconds", "Seconds since the server was constructed.", time.Since(s.start).Seconds())
	p.Counter("sumd_values_total", "Raw float64s accepted via /v1/add.", float64(c.values))
	p.Counter("sumd_batches_total", "Accepted /v1/add requests.", float64(c.batches))
	p.Counter("sumd_removed_total", "Raw float64s deleted via /v1/sub.", float64(c.removed))
	p.Counter("sumd_sub_batches_total", "Accepted /v1/sub requests.", float64(c.subBatches))
	p.Counter("sumd_partials_total", "Wire partials merged via POST /v1/partial.", float64(c.partials))
	p.Counter("sumd_sums_served_total", "Sum and partial-snapshot responses served.", float64(c.sums))
	p.Counter("sumd_rejected_total", "Ingest requests shed with 429 (queue full).", float64(c.rejected))
	p.Counter("sumd_dedup_hits_total", "Partial pushes answered from the idempotency window without re-merging.", float64(c.deduped))
	p.Gauge("sumd_keyed_partitions", "Partition count of the keyed store.", float64(s.keyed.Partitions()))
	p.Gauge("sumd_keyed_keys", "Live keys in the keyed store.", float64(s.keyed.Len()))
	p.Counter("sumd_keyed_values_total", "Raw float64s accepted via keyed /v1/add.", float64(c.keyedValues))
	p.Counter("sumd_keyed_batches_total", "Accepted keyed /v1/add requests.", float64(c.keyedBatches))
	p.Counter("sumd_keyed_removed_total", "Raw float64s deleted via keyed /v1/sub.", float64(c.keyedRemoved))
	p.Counter("sumd_keyed_sub_batches_total", "Accepted keyed /v1/sub requests.", float64(c.keyedSubBatches))
	p.Counter("sumd_keyed_partials_total", "Keys merged via POST /v1/keyed/partial.", float64(c.keyedPartials))
	p.Counter("sumd_keyed_sums_served_total", "Keyed sum and keyed partial-export responses served.", float64(c.keyedSums))
	if s.bat != nil {
		m := s.bat.Metrics()
		o := s.bat.Options()
		p.Gauge("sumd_ingest_queue_len", "Capacity of the bounded ingest queue (requests).", float64(o.QueueLen))
		p.Gauge("sumd_ingest_max_batch", "Most values one flush takes from the queue.", float64(o.MaxBatch))
		p.Gauge("sumd_ingest_queue_depth", "Requests admitted but not yet flushed.", float64(m.QueueDepth))
		p.Counter("sumd_ingest_enqueued_total", "Requests admitted to the ingest queue.", float64(m.Enqueued))
		p.Counter("sumd_ingest_enqueued_values_total", "Float64s admitted to the ingest queue.", float64(m.EnqueuedValues))
		p.Counter("sumd_ingest_rejected_total", "Requests refused because the ingest queue was full.", float64(m.Rejected))
		p.Counter("sumd_ingest_flushes_total", "Coalesced flushes applied to the accumulator.", float64(m.Flushes))
		p.Counter("sumd_ingest_flushed_values_total", "Float64s applied to the accumulator by flushes.", float64(m.FlushedValues))
		p.Counter("sumd_ingest_keyed_enqueued_total", "Keyed requests admitted to the ingest queue.", float64(m.KeyedEnqueued))
		p.Counter("sumd_ingest_keyed_flushed_requests_total", "Keyed requests completed by flushes.", float64(m.KeyedFlushedRequests))
		p.CounterVec("sumd_ingest_flush_cause_total", "Flushes by cause (size: stopped at the batch cap; drain: emptied the queue).", "cause", map[string]float64{
			"size":  float64(m.SizeFlushes),
			"drain": float64(m.DrainFlushes),
		})
		p.Histogram("sumd_ingest_flush_size", "Values per flush.",
			batch.SizeBuckets[:], m.SizeHist[:], float64(m.FlushedValues))
		p.Histogram("sumd_ingest_flush_latency_seconds", "Wall time inside accumulator flush calls.",
			batch.LatencyBuckets[:], m.LatencyHist[:], float64(m.FlushNs)/1e9)
	}
	bad, _ := s.degraded()
	p.Gauge("sumd_degraded", "Whether durability is degraded (healthz serving 503).", b2f(bad))
	p.Gauge("sumd_wal_enabled", "Whether the write-ahead log is journaling ingests.", b2f(s.wal != nil))
	if s.wal != nil {
		m := s.wal.Metrics()
		p.Counter("sumd_wal_records_total", "Mutation records journaled.", float64(m.Records))
		p.Counter("sumd_wal_bytes_total", "Frame bytes written to the journal (headers included).", float64(m.Bytes))
		p.Counter("sumd_wal_commits_total", "Journal commits (group commits in async mode).", float64(m.Commits))
		p.Counter("sumd_wal_fsyncs_total", "Fsyncs issued by the journal.", float64(m.Fsyncs))
		p.Counter("sumd_wal_rotations_total", "Segment rotations.", float64(m.Rotations))
		p.Counter("sumd_wal_snapshots_total", "State snapshots written (each truncates replayed segments).", float64(m.Snapshots))
		p.Counter("sumd_wal_errors_total", "Journal write, fsync, rotate, or snapshot failures.", float64(m.Errors))
		p.Gauge("sumd_wal_segments", "Live journal segment files.", float64(m.Segments))
		p.Gauge("sumd_wal_recovered_records", "Records replayed at startup.", float64(s.recovery.Records))
		p.Gauge("sumd_wal_recovered_truncated_bytes", "Torn-tail bytes dropped at startup.", float64(s.recovery.TruncatedBytes))
		p.Gauge("sumd_wal_recovered_snapshot", "Whether a snapshot seeded recovery at startup.", b2f(s.recovery.SnapshotLoaded))
		p.Gauge("sumd_wal_recovery_seconds", "Wall time of the startup replay.", s.recovery.DurationMS/1e3)
	}
	w.Header().Set("Content-Type", batch.PromContentType)
	_, _ = w.Write(p.Bytes())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// degraded reports whether the service can no longer keep its
// durability promise: a WAL write/fsync/rotate/snapshot failure that
// has not been followed by a durable success. While degraded, an ack
// might not survive a crash, so health flips to 503 — a monitor or load
// balancer pulls the node instead of feeding it writes it may lose.
func (s *Server) degraded() (bool, string) {
	if s.wal == nil {
		return false, ""
	}
	bad, lastErr := s.wal.Degraded()
	if !bad {
		return false, ""
	}
	return true, lastErr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bad, lastErr := s.degraded()
	status := http.StatusOK
	if bad {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		OK       bool   `json:"ok"`
		Engine   string `json:"engine"`
		Shards   int    `json:"shards"`
		Degraded bool   `json:"degraded,omitempty"`
		Error    string `json:"error,omitempty"`
	}{OK: !bad, Engine: s.sh.Engine(), Shards: s.sh.NumShards(), Degraded: bad, Error: lastErr})
}

// handleReadyz is the readiness probe: identical degradation logic to
// /v1/healthz but with the conventional terse text body, so ingress
// health checks that expect "ok" can consume it directly.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if bad, lastErr := s.degraded(); bad {
		http.Error(w, "degraded: "+lastErr, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
