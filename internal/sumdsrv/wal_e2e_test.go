// End-to-end durability tests beyond the crash matrix: snapshot-and-
// truncate cycles, journaled blob pushes (plain partials, binary keyed
// envelopes, keyed JSON) replayed bit-exactly, idempotency tokens
// surviving snapshots and restarts, concurrent async ingest whose
// whole acked multiset must come back after a restart, and one journal
// commit per async flush.
package sumdsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/gen"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// startServer is startService but keeps the *Server handle, for tests
// that read recovery state or WAL metrics directly.
func startServer(t *testing.T, opt sumdsrv.Options) (*sumdsrv.Server, *sumdclient.Client, *httptest.Server) {
	t.Helper()
	srv, err := sumdsrv.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, sumdclient.New(hs.URL, hs.Client()), hs
}

func walStats(t *testing.T, base string) sumdsrv.WALStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		WAL *sumdsrv.WALStats `json:"wal"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding stats %s: %v", data, err)
	}
	if st.WAL == nil {
		t.Fatalf("stats of a WAL-enabled server lack the wal section: %s", data)
	}
	return *st.WAL
}

// TestWALSnapshotsAndBlobReplay drives every journaled record shape —
// raw batches, plain partial blobs, binary keyed envelopes, keyed JSON —
// through a server snapshotting every few mutations, then restarts from
// the directory and demands identical bits. It also proves the
// idempotency window rides snapshots: a pre-restart push retried after
// the restart must be recognized as a duplicate.
func TestWALSnapshotsAndBlobReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, c, hs := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		WALDir: dir, WALFsync: "off", WALSnapshotEvery: 5,
	})
	if !srv.Durable() || srv.Async() {
		t.Fatalf("Durable=%t Async=%t, want durable sync server", srv.Durable(), srv.Async())
	}
	if srv.Engine() == "" {
		t.Fatal("server reports no engine")
	}

	xs := gen.New(gen.Config{Dist: gen.Random, N: 300, Delta: 80, Seed: 17}).Slice()
	oracle, _ := parsum.NewAccumulatorEngine("dense")

	// Five raw mutations — exactly one snapshot cycle, so everything
	// below it lands in the replayed tail.
	if err := c.AddBatch(ctx, xs[:100]); err != nil {
		t.Fatal(err)
	}
	oracle.AddSlice(xs[:100])
	if err := c.SubBatch(ctx, xs[:20]); err != nil {
		t.Fatal(err)
	}
	oracle.SubSlice(xs[:20])
	if err := c.AddKeyed(ctx, "raw", xs[200:260]); err != nil {
		t.Fatal(err)
	}
	if err := c.SubKeyed(ctx, "raw", xs[200:230]); err != nil {
		t.Fatal(err)
	}
	rawOracle, _ := parsum.NewAccumulatorEngine("dense")
	rawOracle.AddSlice(xs[200:260])
	rawOracle.SubSlice(xs[200:230])
	if err := c.AddBatch(ctx, xs[260:]); err != nil {
		t.Fatal(err)
	}
	oracle.AddSlice(xs[260:])

	// A plain partial blob, pushed with an explicit idempotency token so
	// the same bytes can be retried across the restart below. This and
	// the keyed blobs after it sit past the snapshot: recovery must
	// replay them (and re-arm the token) from the journal itself.
	staged, _ := parsum.NewAccumulatorEngine("dense")
	staged.AddSlice(xs[100:150])
	blob, err := staged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	oracle.AddSlice(xs[100:150])
	const token = "e2e-idem-token-0001"
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", token, blob); code != 200 {
		t.Fatalf("tokened partial push: %d", code)
	}

	// A binary keyed envelope and the keyed JSON form.
	kc, err := c.NewKeyedCombiner("")
	if err != nil {
		t.Fatal(err)
	}
	kc.Add("env", xs[150:200])
	if _, err := kc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	engine, ps, err := c.PullKeyedPartials(ctx, "env", "env\x00")
	if err != nil || len(ps) != 1 {
		t.Fatalf("pulling key env: engine=%q n=%d err=%v", engine, len(ps), err)
	}
	if _, err := c.PushKeyedPartials(ctx, []parsum.KeyPartial{{Key: "json", Blob: ps[0].Blob}}); err != nil {
		t.Fatal(err)
	}
	keyWant := math.Float64bits(parsum.Sum(xs[150:200]))

	// Five raw mutations at snapshot-every-5: exactly one snapshot ran,
	// and the three blob pushes above stayed in the replayed tail.
	st := walStats(t, hs.URL)
	if st.Snapshots < 1 {
		t.Fatalf("snapshots = %d, want >= 1", st.Snapshots)
	}
	if st.Errors != 0 {
		t.Fatalf("journal errors: %d (%s)", st.Errors, st.LastError)
	}
	wantSum := math.Float64bits(oracle.Round())

	// Restart from the directory bytes.
	srv2, c2, hs2 := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		WALDir: restoreWAL(t, walBytes(t, dir)), WALFsync: "off", WALSnapshotEvery: 5,
	})
	if !srv2.Recovery().SnapshotLoaded {
		t.Error("recovery did not load the snapshot")
	}
	got, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != wantSum {
		t.Errorf("recovered sum %x, want %x", math.Float64bits(got), wantSum)
	}
	for _, key := range []string{"env", "json"} {
		kv, ok, err := c2.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("recovered SumKey(%q): ok=%t err=%v", key, ok, err)
		}
		if math.Float64bits(kv) != keyWant {
			t.Errorf("recovered key %q: %x, want %x", key, math.Float64bits(kv), keyWant)
		}
	}
	kv, ok, err := c2.SumKey(ctx, "raw")
	if err != nil || !ok {
		t.Fatalf("recovered SumKey(raw): ok=%t err=%v", ok, err)
	}
	if want := math.Float64bits(rawOracle.Round()); math.Float64bits(kv) != want {
		t.Errorf("recovered key raw: %x, want %x", math.Float64bits(kv), want)
	}

	// The pre-restart token must still dedupe: retrying the identical
	// push against the recovered server leaves the bits unchanged.
	if code := postIdem(t, hs2.URL+"/v1/partial", "application/octet-stream", token, blob); code != 200 {
		t.Fatalf("retried tokened push after restart: %d", code)
	}
	got, err = c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != wantSum {
		t.Errorf("retried push re-applied across restart: sum %x, want %x",
			math.Float64bits(got), wantSum)
	}
}

// TestIdemTokenReleasedOnRejectedPush: a token attached to a push the
// service rejects must not be burned — the same token with a valid body
// must then apply. And over-long tokens are a 400, not a silent accept.
func TestIdemTokenReleasedOnRejectedPush(t *testing.T) {
	ctx := context.Background()
	_, c, hs := startServer(t, sumdsrv.Options{Shards: 1})

	const token = "retry-after-reject"
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", token, []byte("garbage")); code != 400 {
		t.Fatalf("garbage partial: %d, want 400", code)
	}
	acc, _ := parsum.NewAccumulatorEngine("dense")
	acc.AddSlice([]float64{1.5, 2.25})
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", token, blob); code != 200 {
		t.Fatalf("valid push reusing the rejected token: %d, want 200", code)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.75 {
		t.Fatalf("sum %v, want 3.75 (rejected push burned the token)", got)
	}
	long := strings.Repeat("x", 300)
	if code := postIdem(t, hs.URL+"/v1/partial", "application/octet-stream", long, blob); code != 400 {
		t.Fatalf("over-long token: %d, want 400", code)
	}
}

func postIdem(t *testing.T, url, contentType, token string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Idempotency-Key", token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestWALAsyncConcurrentDurability hammers a WAL-enabled async server
// with concurrent plain and keyed traffic (adds and retractions), then
// restarts from the directory: the recovered bits must equal the exact
// oracle over everything that was acked. Group commit means multi-item
// flush groups journal as one commit — this is the test that exercises
// the slice and keyed sink paths under contention.
func TestWALAsyncConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, _ := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		Async: true, QueueLen: 64, MaxBatch: 32, Flushers: 2,
		WALDir: dir, WALFsync: "off",
	})

	xs := gen.New(gen.Config{Dist: gen.Random, N: 4000, Delta: 400, Seed: 23}).Slice()
	parts := splitSlices(xs, 8)
	keys := []string{"a", "b", "c"}
	// One goroutine per operation: 40 simultaneous submissions against a
	// deep queue force multi-request flush groups, so group commit
	// journals several frames per fsyncless Commit.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w, part := range parts {
		for i, chunk := range splitSlices(part, 5) {
			wg.Add(1)
			go func(w, i int, chunk []float64) {
				defer wg.Done()
				var err error
				switch {
				case w%2 == 1:
					key := keys[(w+i)%len(keys)]
					if i%3 == 2 {
						err = c.SubKeyed(ctx, key, chunk)
					} else {
						err = c.AddKeyed(ctx, key, chunk)
					}
				case i%3 == 2:
					err = c.SubBatch(ctx, chunk)
				default:
					err = c.AddBatch(ctx, chunk)
				}
				if err != nil {
					errs <- err
				}
			}(w, i, chunk)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Replay the same deterministic schedule into exact oracles — order
	// does not matter, only the acked multiset.
	oracle, _ := parsum.NewAccumulatorEngine("dense")
	keyOracle := map[string]*parsum.Accumulator{}
	for w, part := range parts {
		for i, chunk := range splitSlices(part, 5) {
			switch {
			case w%2 == 1:
				key := keys[(w+i)%len(keys)]
				if keyOracle[key] == nil {
					keyOracle[key], _ = parsum.NewAccumulatorEngine("dense")
				}
				if i%3 == 2 {
					keyOracle[key].SubSlice(chunk)
				} else {
					keyOracle[key].AddSlice(chunk)
				}
			case i%3 == 2:
				oracle.SubSlice(chunk)
			default:
				oracle.AddSlice(chunk)
			}
		}
	}

	_, c2, _ := startServer(t, sumdsrv.Options{
		Shards: 2, KeyPartitions: 2,
		WALDir: restoreWAL(t, walBytes(t, dir)), WALFsync: "off",
	})
	got, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Round(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("recovered async sum %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
	for key, acc := range keyOracle {
		kv, ok, err := c2.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("recovered SumKey(%q): ok=%t err=%v", key, ok, err)
		}
		if want := acc.Round(); math.Float64bits(kv) != math.Float64bits(want) {
			t.Errorf("recovered key %q: %x, want %x", key, math.Float64bits(kv), math.Float64bits(want))
		}
	}
}

// TestAsyncFlushCommitsOnce: a flush journals its whole group with one
// commit, whatever kinds of write it holds. A gated sink holds one flush
// open while an add, a sub, a keyed add and a keyed sub queue behind
// it; the flush that takes all four must advance the journal's commits
// and, under fsync always, its fsyncs by exactly one.
func TestAsyncFlushCommitsOnce(t *testing.T) {
	gs := &gatedSink{entered: make(chan struct{}), gate: make(chan struct{})}
	_, c, hs := startServer(t, sumdsrv.Options{
		Async: true, WALDir: t.TempDir(), WALFsync: "always",
		WrapSink: func(real batch.Sink) batch.Sink { gs.real = real; return gs },
	})
	ctx := context.Background()
	results := make(chan error, 5)
	go func() { results <- c.AddBatch(ctx, []float64{1}) }()
	select {
	case <-gs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first flush never reached the sink")
	}
	// The held flush committed before it reached the sink.
	before := walStats(t, hs.URL)
	go func() { results <- c.AddBatch(ctx, []float64{2}) }()
	go func() { results <- c.SubBatch(ctx, []float64{3}) }()
	go func() { results <- c.AddKeyed(ctx, "a", []float64{4}) }()
	go func() { results <- c.SubKeyed(ctx, "b", []float64{5}) }()
	deadline := time.Now().Add(5 * time.Second)
	for fetchStats(t, hs.URL).Async.Enqueued < 5 {
		if time.Now().After(deadline) {
			t.Fatal("the four writes were never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	close(gs.gate)
	for i := 0; i < 5; i++ {
		if err := <-results; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	after := walStats(t, hs.URL)
	if d := after.Commits - before.Commits; d != 1 {
		t.Errorf("the four-write flush committed %d times, want 1", d)
	}
	if d := after.Fsyncs - before.Fsyncs; d != 1 {
		t.Errorf("the four-write flush fsynced %d times, want 1", d)
	}
	if d := after.Records - before.Records; d != 4 {
		t.Errorf("the four-write flush journaled %d records, want 4", d)
	}
	if st := fetchStats(t, hs.URL).Async; st.Flushes != 2 {
		t.Errorf("%d flushes, want the held one plus one for all four writes", st.Flushes)
	}
	for key, want := range map[string]float64{"": 0, "a": 4, "b": -5} {
		var got float64
		var err error
		if key == "" {
			got, err = c.Sum(ctx)
		} else {
			got, _, err = c.SumKey(ctx, key)
		}
		if err != nil || got != want {
			t.Errorf("sum of %q = %v (err %v), want %v", key, got, err, want)
		}
	}
}

// TestFailedReplayLeavesWALUntouched journals a partial under the dense
// engine and reopens the directory under sparse: the partial's replay
// fails with an engine mismatch, New must name that record, and the
// directory — torn tail and stale snapshot included — must come through
// byte for byte, so the right configuration can still recover it.
func TestFailedReplayLeavesWALUntouched(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, c, hs := startServer(t, sumdsrv.Options{Shards: 2, WALDir: dir, WALFsync: "off"})
	if err := c.AddBatch(ctx, []float64{1.5, 2.25}); err != nil {
		t.Fatal(err)
	}
	blob, err := c.SnapshotPartial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PushPartial(ctx, blob); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	srv.Close()
	// Damage a successful recovery would repair: a torn tail on the
	// segment and a junk snapshot it would delete.
	state := walBytes(t, dir)
	for name, data := range state {
		if strings.HasSuffix(name, ".seg") {
			state[name] = append(data, 0xDE, 0xAD)
		}
	}
	state["snap-0000000000000099.snap"] = []byte("PSWSjunk")
	dir = restoreWAL(t, state)

	_, err = sumdsrv.New(sumdsrv.Options{Engine: "sparse", Shards: 2, WALDir: dir, WALFsync: "off"})
	if err == nil || !strings.Contains(err.Error(), "record 1 (partial)") {
		t.Fatalf("New under a mismatched engine = %v, want an error naming record 1 (partial)", err)
	}
	if got := walBytes(t, dir); !reflect.DeepEqual(got, state) {
		t.Fatal("a failed replay changed the WAL directory")
	}

	// The original configuration still recovers everything.
	srv2, c2, hs2 := startServer(t, sumdsrv.Options{Shards: 2, WALDir: dir, WALFsync: "off"})
	got, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7.5 {
		t.Fatalf("recovered sum %v, want 7.5", got)
	}
	rec := srv2.Recovery()
	if rec.Records != 2 || !rec.Torn || rec.DurationMS <= 0 {
		t.Fatalf("recovery report %+v, want 2 records, torn, positive duration", rec)
	}
	if st := walStats(t, hs2.URL); st.Recovery != rec {
		t.Fatalf("/v1/stats recovery %+v, want %+v", st.Recovery, rec)
	}
	fams, err := batch.LintProm(scrape(t, hs2.URL))
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["sumd_wal_recovery_seconds"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != rec.DurationMS/1e3 {
		t.Fatalf("/metrics sumd_wal_recovery_seconds = %+v, want one sample of %v", f, rec.DurationMS/1e3)
	}
}
