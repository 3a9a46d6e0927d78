// End-to-end test of the distributed aggregation subsystem: a sumd
// service started in-process via httptest, driven by concurrent
// sumdclient workers pushing serialized partials over real HTTP. The
// acceptance property is the paper's reproducibility claim carried across
// the socket: the final sum is bit-identical to parsum.Sum of the
// concatenated input, for every shard count, client count, and push
// interleaving exercised here.
package sumdsrv_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func startService(t *testing.T, opt sumdsrv.Options) (*sumdclient.Client, *httptest.Server) {
	t.Helper()
	srv, err := sumdsrv.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return sumdclient.New(hs.URL, hs.Client()), hs
}

// splitSlices cuts xs into n contiguous slices of roughly equal length.
func splitSlices(xs []float64, n int) [][]float64 {
	out := make([][]float64, 0, n)
	per := len(xs) / n
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = len(xs)
		}
		out = append(out, xs[lo:hi])
	}
	return out
}

func TestE2EDistributedSumBitIdentical(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.SumZero, N: 30000, Delta: 1500, Seed: 77}).Slice()
	want := parsum.Sum(xs)
	ctx := context.Background()

	for _, shards := range []int{1, 3} {
		for _, clients := range []int{1, 2, 4, 8} {
			c, _ := startService(t, sumdsrv.Options{Shards: shards})
			slices := splitSlices(xs, clients)
			var wg sync.WaitGroup
			for w, part := range slices {
				wg.Add(1)
				go func(w int, part []float64) {
					defer wg.Done()
					co, err := c.NewCombiner("")
					if err != nil {
						t.Error(err)
						return
					}
					// Vary the flush cadence per worker so pushes interleave
					// mid-stream, not only at the end.
					r := rand.New(rand.NewSource(int64(1000*w + clients)))
					for len(part) > 0 {
						n := 1 + r.Intn(len(part))
						co.AddSlice(part[:n])
						part = part[n:]
						if err := co.Flush(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}(w, part)
			}
			wg.Wait()
			got, err := c.Sum(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shards=%d clients=%d: distributed=%g (bits %x) sequential=%g (bits %x)",
					shards, clients, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestE2EPushOrderings pins order-independence deterministically: the same
// set of partials pushed in several permutations yields the same bits.
func TestE2EPushOrderings(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 9000, Delta: 1200, Seed: 78}).Slice()
	want := parsum.Sum(xs)
	ctx := context.Background()

	// Pre-serialize one partial per slice.
	var blobs [][]byte
	for _, part := range splitSlices(xs, 9) {
		acc := parsum.NewAccumulator()
		acc.AddSlice(part)
		blob, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 5; trial++ {
		c, _ := startService(t, sumdsrv.Options{Shards: 2})
		order := r.Perm(len(blobs))
		for _, i := range order {
			if err := c.PushPartial(ctx, blobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Sum(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("order %v: %g != %g", order, got, want)
		}
	}
}

// TestE2EMixedIngestAndPartialsWithSpecials drives raw binary batches
// (including non-finite values) and partials concurrently with mid-flight
// sums.
func TestE2EMixedIngestAndPartialsWithSpecials(t *testing.T) {
	ctx := context.Background()
	c, _ := startService(t, sumdsrv.Options{Shards: 4})

	xs := []float64{1e308, -1e308, 0x1p-1074, 3.5, math.Inf(1), -2.25}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if err := c.AddBatch(ctx, xs[:3]); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		co, err := c.NewCombiner("dense")
		if err != nil {
			t.Error(err)
			return
		}
		co.AddSlice(xs[3:])
		if err := co.Flush(ctx); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := c.Sum(ctx); err != nil { // mid-flight sum must not disturb state
			t.Error(err)
		}
	}()
	wg.Wait()
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("sum with +Inf summand = %g, want +Inf", got)
	}
}

// TestE2EChainedReducers: sumd instances compose — a leaf service's
// GET /v1/partial feeds a root service's POST /v1/partial, and the root
// still serves the oracle's bits (the paper's reduction tree over real
// sockets).
func TestE2EChainedReducers(t *testing.T) {
	ctx := context.Background()
	xs := gen.New(gen.Config{Dist: gen.Random, N: 8000, Delta: 900, Seed: 80}).Slice()
	want := parsum.Sum(xs)

	root, _ := startService(t, sumdsrv.Options{Shards: 2})
	for _, part := range splitSlices(xs, 3) {
		leaf, _ := startService(t, sumdsrv.Options{Shards: 2})
		if err := leaf.AddBatch(ctx, part); err != nil {
			t.Fatal(err)
		}
		blob, err := leaf.SnapshotPartial(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.PushPartial(ctx, blob); err != nil {
			t.Fatal(err)
		}
	}
	got, err := root.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("chained=%g want=%g", got, want)
	}
}

func TestE2EEngineSelectionAndReset(t *testing.T) {
	ctx := context.Background()
	for _, eng := range []string{"dense", "sparse", "small"} {
		c, _ := startService(t, sumdsrv.Options{Engine: eng, Shards: 2})
		co, err := c.NewCombiner(eng)
		if err != nil {
			t.Fatal(err)
		}
		co.AddSlice([]float64{1.5, 2.5, -0.5})
		if err := co.Flush(ctx); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		got, err := c.Sum(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != 3.5 {
			t.Fatalf("%s: sum=%g want 3.5", eng, got)
		}
		if err := c.Reset(ctx); err != nil {
			t.Fatal(err)
		}
		got, err = c.Sum(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("%s: sum after reset=%g", eng, got)
		}
	}
}

func TestE2ERejections(t *testing.T) {
	ctx := context.Background()
	c, hs := startService(t, sumdsrv.Options{})

	// Garbage partial → 400, and state is untouched.
	if err := c.PushPartial(ctx, []byte{0xDE, 0xAD, 0xBE, 0xEF}); err == nil {
		t.Error("garbage partial accepted")
	}
	// Cross-engine partial → 409.
	sp, err := parsum.NewAccumulatorEngine("sparse")
	if err != nil {
		t.Fatal(err)
	}
	sp.Add(1)
	blob, err := sp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	err = c.PushPartial(ctx, blob)
	if err == nil {
		t.Error("cross-engine partial accepted")
	}
	// Misaligned binary batch → 400.
	resp, err := hs.Client().Post(hs.URL+"/v1/add", "application/octet-stream",
		bytesReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("misaligned batch: status %d, want 400", resp.StatusCode)
	}
	// Wrong method → 405.
	resp, err = hs.Client().Get(hs.URL + "/v1/add")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /v1/add: status %d, want 405", resp.StatusCode)
	}
	// Unknown engine at construction.
	if _, err := sumdsrv.New(sumdsrv.Options{Engine: "no-such"}); err == nil {
		t.Error("unknown engine accepted")
	}
	// Non-sharded-capable engine at construction.
	if _, err := sumdsrv.New(sumdsrv.Options{Engine: "kahan"}); err == nil {
		t.Error("kahan-backed service accepted")
	}
	// State survived all rejections.
	if got, err := c.Sum(ctx); err != nil || got != 0 {
		t.Errorf("state disturbed by rejected requests: sum=%g err=%v", got, err)
	}
}

// TestE2EBinaryAddWithContentTypeParams: media-type parameters are legal
// (RFC 9110) and must not re-route a binary batch to the JSON parser.
func TestE2EBinaryAddWithContentTypeParams(t *testing.T) {
	ctx := context.Background()
	c, hs := startService(t, sumdsrv.Options{})
	body := make([]byte, 16)
	binary.LittleEndian.PutUint64(body, math.Float64bits(1.25))
	binary.LittleEndian.PutUint64(body[8:], math.Float64bits(2.25))
	resp, err := hs.Client().Post(hs.URL+"/v1/add",
		"application/octet-stream; charset=binary", bytesReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("parameterized octet-stream: status %d", resp.StatusCode)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.5 {
		t.Fatalf("sum=%g, want 3.5", got)
	}
}

func TestE2EJSONAddAndStats(t *testing.T) {
	ctx := context.Background()
	c, hs := startService(t, sumdsrv.Options{})
	resp, err := hs.Client().Post(hs.URL+"/v1/add", "application/json",
		bytesReader([]byte(`{"values":[0.1,0.2,0.3]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("JSON add: status %d", resp.StatusCode)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := parsum.Sum([]float64{0.1, 0.2, 0.3}); got != want {
		t.Fatalf("JSON-ingested sum=%g want=%g", got, want)
	}
	// Trailing content after the JSON batch is rejected, not silently
	// dropped.
	resp, err = hs.Client().Post(hs.URL+"/v1/add", "application/json",
		bytesReader([]byte(`{"values":[1]}{"values":[2]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("concatenated JSON batches: status %d, want 400", resp.StatusCode)
	}
	if got2, err := c.Sum(ctx); err != nil || got2 != got {
		t.Fatalf("rejected batch changed the sum: %g -> %g (err %v)", got, got2, err)
	}

	resp, err = hs.Client().Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	resp, err = hs.Client().Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}
