// End-to-end tests of the async ingestion front-end over real HTTP:
// group-commit exactness under concurrent clients, forced 429s with
// retrying clients, the backpressure contract (429 leaves no trace),
// and the Prometheus exposition (lint conformance + cross-scrape
// monotonicity — the CI metrics-lint gate).
package sumdsrv_test

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
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

// TestAsyncE2E drives N concurrent clients through the batched ingest
// path for several shard counts, with a queue tight enough to force
// 429s and a latency budget short enough to force deadline flushes.
// Clients retry shed requests with jittered backoff; whatever subset
// ends up accepted, the served sum must be bit-identical to parsum.Sum
// over exactly that multiset — and the client-side retry ledger must
// reconcile with the server's rejection ledger.
func TestAsyncE2E(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 12000, Delta: 1200, Seed: 31}).Slice()
	for _, shards := range []int{1, 4, 8} {
		for _, retries := range []int{0, 25} {
			c, hs := startService(t, sumdsrv.Options{
				Shards:   shards,
				Async:    true,
				QueueLen: 2, // tight: concurrent clients WILL collide
				MaxBatch: 512,
				Flushers: 2,
			})
			c.Retry429 = retries
			c.RetryBase = 200 * time.Microsecond

			const clients = 8
			parts := splitSlices(xs, clients)
			accepted := make([][]float64, clients)
			rejectedReqs := make([]int64, clients)
			manual429s := make([]int64, clients)
			ctx := context.Background()
			var wg sync.WaitGroup
			for w, part := range parts {
				wg.Add(1)
				go func(w int, part []float64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(7*w + shards)))
					for len(part) > 0 {
						n := 1 + r.Intn(64)
						if n > len(part) {
							n = len(part)
						}
						chunk := part[:n]
						part = part[n:]
						var err error
						if w%3 == 2 && r.Intn(4) == 0 {
							// Deletions ride the same batcher; subtracting
							// chunk then adding it twice nets one insertion
							// of the chunk, keeping the oracle simple while
							// exercising the sub path end-to-end.
							err = c.SubBatch(ctx, chunk)
							if err == nil {
								absorbed, err2 := addUntilAccepted(ctx, c, chunk)
								manual429s[w] += absorbed
								if err2 != nil {
									t.Errorf("client %d: re-add after sub: %v", w, err2)
									return
								}
							}
						}
						if err == nil {
							err = c.AddBatch(ctx, chunk)
						}
						if err == nil {
							accepted[w] = append(accepted[w], chunk...)
						} else {
							rejectedReqs[w]++
						}
					}
				}(w, part)
			}
			wg.Wait()

			var multiset []float64
			var totalRejected, totalManual int64
			for w := range accepted {
				multiset = append(multiset, accepted[w]...)
				totalRejected += rejectedReqs[w]
				totalManual += manual429s[w]
			}
			want := parsum.Sum(multiset)
			got, err := c.Sum(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("shards=%d retries=%d: served sum %g (%016x) != parsum.Sum over accepted multiset %g (%016x)",
					shards, retries, got, math.Float64bits(got), want, math.Float64bits(want))
			}

			st := fetchStats(t, hs.URL)
			if st.Async == nil {
				t.Fatalf("shards=%d: async server served no async stats", shards)
			}
			// Every 429 the server recorded was either retried by the
			// client's backoff loop, absorbed by a manual retry, or
			// surfaced as a permanently rejected request.
			if got, wantLedger := st.Async.Rejected, c.Retried429()+totalManual+totalRejected; got > wantLedger {
				t.Errorf("shards=%d retries=%d: server rejected %d > client retries %d + manual %d + failures %d",
					shards, retries, got, c.Retried429(), totalManual, totalRejected)
			}
			if retries > 0 && st.Async.Flushes == 0 {
				t.Errorf("shards=%d: no flushes recorded at all: %+v", shards, st.Async)
			}
			if st.Async.FlushedRequests != st.Async.Enqueued || st.Async.QueueDepth != 0 {
				t.Errorf("shards=%d: quiescent ledger not drained: %+v", shards, st.Async)
			}
		}
	}
}

// addUntilAccepted retries an AddBatch past the client's own retry
// budget — used where the test must guarantee acceptance to keep its
// oracle bookkeeping exact. It returns how many 429s it absorbed, so
// the caller can reconcile the server's rejection ledger.
func addUntilAccepted(ctx context.Context, c *sumdclient.Client, xs []float64) (int64, error) {
	var absorbed int64
	for {
		err := c.AddBatch(ctx, xs)
		if err == nil {
			return absorbed, nil
		}
		// sumdclient renders non-2xx as "sumd: HTTP <code>: ...".
		if !strings.Contains(err.Error(), "HTTP 429") {
			return absorbed, err
		}
		absorbed++
		time.Sleep(200 * time.Microsecond)
	}
}

func fetchStats(t *testing.T, base string) sumdsrv.StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sumdsrv.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func scrape(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != batch.PromContentType {
		t.Fatalf("Content-Type %q, want %q", ct, batch.PromContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMetricsLint is the CI metrics-lint gate run in-process: two
// scrapes of a loaded async server (and one of a sync server) must pass
// the format linter, and every counter series must be monotone across
// the scrapes.
func TestMetricsLint(t *testing.T) {
	c, hs := startService(t, sumdsrv.Options{
		Shards: 2, Async: true, QueueLen: 4, MaxBatch: 64,
	})
	ctx := context.Background()
	c.Retry429 = 50
	c.RetryBase = 100 * time.Microsecond
	xs := gen.New(gen.Config{Dist: gen.Random, N: 2000, Delta: 300, Seed: 5}).Slice()
	for _, chunk := range splitSlices(xs, 40) {
		if err := c.AddBatch(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}
	first, err := batch.LintProm(scrape(t, hs.URL))
	if err != nil {
		t.Fatalf("first scrape failed lint: %v", err)
	}
	for _, name := range []string{
		"sumd_up", "sumd_values_total", "sumd_ingest_enqueued_total",
		"sumd_ingest_flush_cause_total", "sumd_ingest_flush_size",
		"sumd_ingest_flush_latency_seconds", "sumd_ingest_queue_depth",
	} {
		if first[name] == nil {
			t.Errorf("async exposition is missing family %s", name)
		}
	}
	for _, chunk := range splitSlices(xs, 40) {
		if err := c.AddBatch(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Sum(ctx); err != nil {
		t.Fatal(err)
	}
	second, err := batch.LintProm(scrape(t, hs.URL))
	if err != nil {
		t.Fatalf("second scrape failed lint: %v", err)
	}
	if err := batch.CheckMonotone(first, second); err != nil {
		t.Fatalf("counters not monotone across scrapes: %v", err)
	}
	// /v1/stats carries the same cause ledger; deadline_flushes repeats
	// drain_flushes for the benchmark's batch.deadline_share.
	if st := fetchStats(t, hs.URL).Async; st.Flushes != st.SizeFlushes+st.DrainFlushes ||
		st.DrainFlushes == 0 || st.DeadlineFlushes != st.DrainFlushes {
		t.Fatalf("flush causes %+v: want flushes == size+drain, drain > 0, deadline == drain", st)
	}

	// Sync mode must also serve a conformant (smaller) exposition.
	_, syncSrv := startService(t, sumdsrv.Options{Shards: 1})
	fams, err := batch.LintProm(scrape(t, syncSrv.URL))
	if err != nil {
		t.Fatalf("sync exposition failed lint: %v", err)
	}
	if fams["sumd_ingest_enqueued_total"] != nil {
		t.Error("sync exposition leaked async-only families")
	}
}

// gatedSink wraps the real accumulator and parks the first AddBatch on
// a gate, holding that flush open until the test releases it. While it
// is parked the flusher cannot drain, so the bounded queue wedges
// deterministically.
type gatedSink struct {
	real    batch.Sink
	entered chan struct{} // closed once a flush is parked on the gate
	gate    chan struct{} // close to release the parked flush
	once    sync.Once
}

func (g *gatedSink) AddBatch(xs []float64) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	g.real.AddBatch(xs)
}

func (g *gatedSink) SubBatch(xs []float64) { g.real.SubBatch(xs) }

func (g *gatedSink) AddBatches(bs [][]float64) {
	for _, xs := range bs {
		g.AddBatch(xs)
	}
}

func (g *gatedSink) SubBatches(bs [][]float64) { g.real.(batch.SliceSink).SubBatches(bs) }

func (g *gatedSink) AddKeyedBatches(bs []parsum.KeyedBatch) {
	g.real.(batch.KeyedSink).AddKeyedBatches(bs)
}

func (g *gatedSink) SubKeyedBatches(bs []parsum.KeyedBatch) {
	g.real.(batch.KeyedSink).SubKeyedBatches(bs)
}

// TestRejectedRequestLeavesServiceUntouched pins the 429 contract over
// real HTTP, deterministically: a gated sink holds request A's flush
// open, request B fills the single queue slot, so request C MUST be
// shed — with Retry-After: 1, and without leaving any trace in the sum
// or the accepted ledger.
func TestRejectedRequestLeavesServiceUntouched(t *testing.T) {
	gs := &gatedSink{entered: make(chan struct{}), gate: make(chan struct{})}
	c, hs := startService(t, sumdsrv.Options{
		Shards: 1, Async: true,
		QueueLen: 1,
		MaxBatch: 1, // flush each request alone, immediately
		WrapSink: func(real batch.Sink) batch.Sink { gs.real = real; return gs },
	})
	ctx := context.Background()

	// A is picked up by the flusher and parks inside the sink.
	resA := make(chan error, 1)
	go func() { resA <- c.AddBatch(ctx, []float64{1}) }()
	select {
	case <-gs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flush of request A never reached the sink")
	}

	// B occupies the single queue slot behind the parked flush.
	resB := make(chan error, 1)
	go func() { resB <- c.AddBatch(ctx, []float64{2}) }()
	deadline := time.Now().Add(5 * time.Second)
	for fetchStats(t, hs.URL).Async.Enqueued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("request B was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// C finds the queue full and must be shed without side effects.
	resp, err := http.Post(hs.URL+"/v1/add", "application/json", bytesReader([]byte(`{"values":[99]}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("wedged add: got %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want the constant 1", ra)
	}

	close(gs.gate) // release the parked flush; A and B must now commit
	for i, ch := range []chan error{resA, resB} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("parked request %d failed: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked request %d never completed after release", i)
		}
	}

	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := parsum.Sum([]float64{1, 2}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sum %g includes the rejected batch (want %g)", got, want)
	}
	st := fetchStats(t, hs.URL)
	if st.Rejected != 1 || st.Async.Rejected != 1 {
		t.Fatalf("rejection ledgers: server=%d batcher=%d, want 1 and 1", st.Rejected, st.Async.Rejected)
	}
	if st.Values != 2 || st.Batches != 2 {
		t.Fatalf("accepted ledger polluted by the 429: %+v", st)
	}
}

// TestResetRacingFlushes races POST /v1/reset against in-flight async
// adds (every value lands exactly once and a reset wipes whatever had
// landed, so no interleaving can corrupt state — the race detector
// checks the locking, the ledger check the accounting), then pins the
// quiesced semantics: after a drain + reset, the served sum covers
// exactly the post-reset adds.
func TestResetRacingFlushes(t *testing.T) {
	c, hs := startService(t, sumdsrv.Options{
		Shards: 4, Async: true,
		QueueLen: 16, MaxBatch: 64,
	})
	ctx := context.Background()
	c.Retry429 = 100
	c.RetryBase = 100 * time.Microsecond

	// Phase 1: adds racing resets.
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.AddBatch(ctx, []float64{float64(g), 1e100, -1e100}); err != nil {
					t.Errorf("racing add: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Post(hs.URL+"/v1/reset", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// Quiesce: every admitted request flushed, queue empty — the racing
	// phase must not have dropped or double-counted a batch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fetchStats(t, hs.URL).Async
		if st.QueueDepth == 0 && st.FlushedRequests == st.Enqueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batcher never quiesced after racing resets: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2, deterministic: reset the quiescent service, then the sum
	// must cover exactly what was added afterwards.
	resp, err := http.Post(hs.URL+"/v1/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	xs := gen.New(gen.Config{Dist: gen.Random, N: 5000, Delta: 600, Seed: 17}).Slice()
	for _, chunk := range splitSlices(xs, 25) {
		if err := c.AddBatch(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := parsum.Sum(xs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("post-reset sum %g (%016x) != parsum.Sum of post-reset adds %g (%016x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestStatsSnapshotConsistency is the torn-read regression test: the
// server-level counters must come from one lock-consistent snapshot, so
// a /v1/stats racing accepted 1-value adds can never report
// values != batches — which the old per-field atomics allowed.
func TestStatsSnapshotConsistency(t *testing.T) {
	c, hs := startService(t, sumdsrv.Options{Shards: 2})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.AddBatch(ctx, []float64{float64(g)}); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := fetchStats(t, hs.URL)
		if st.Values != st.Batches {
			t.Fatalf("torn stats snapshot: values=%d batches=%d (1-value batches, so they must match)",
				st.Values, st.Batches)
		}
	}
	close(stop)
	wg.Wait()
}
