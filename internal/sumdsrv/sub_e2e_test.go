// End-to-end tests for the deletion half of the protocol: POST /v1/sub
// deletes previously ingested values exactly, so the served sum after any
// add/sub history over HTTP is bit-identical to parsum.Sum of the
// surviving multiset — including non-finite values, which the service's
// in-memory group representation deletes without a trace.
package sumdsrv_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/sumdsrv"
)

func TestE2ESubRestoresBits(t *testing.T) {
	keep := gen.New(gen.Config{Dist: gen.Random, N: 20000, Delta: 1500, Seed: 81}).Slice()
	churn := gen.New(gen.Config{Dist: gen.Anderson, N: 15000, Delta: 900, Seed: 82}).Slice()
	churn = append(churn, math.Inf(1), math.NaN(), math.Inf(-1), math.MaxFloat64)
	want := parsum.Sum(keep)

	for _, engineName := range []string{"dense", "sparse", "small"} {
		c, _ := startService(t, sumdsrv.Options{Engine: engineName, Shards: 3})
		ctx := context.Background()

		// Concurrent workers: each adds its slice of keep∪churn, then
		// deletes its slice of churn again over the socket.
		var wg sync.WaitGroup
		for _, part := range splitSlices(keep, 4) {
			wg.Add(1)
			go func(part []float64) {
				defer wg.Done()
				if err := c.AddBatch(ctx, part); err != nil {
					t.Error(err)
				}
			}(part)
		}
		for _, part := range splitSlices(churn, 3) {
			wg.Add(1)
			go func(part []float64) {
				defer wg.Done()
				if err := c.AddBatch(ctx, part); err != nil {
					t.Error(err)
				}
				if err := c.SubBatch(ctx, part); err != nil {
					t.Error(err)
				}
			}(part)
		}
		wg.Wait()

		got, err := c.Sum(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: served %x, want %x", engineName,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestE2ESubSpecialsRecover: an infinity spike ingested over HTTP and then
// deleted over HTTP leaves a finite, exact sum — the property no sticky
// special tracking could provide.
func TestE2ESubSpecialsRecover(t *testing.T) {
	c, _ := startService(t, sumdsrv.Options{Shards: 2})
	ctx := context.Background()
	if err := c.AddBatch(ctx, []float64{1e100, 1, -1e100, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("with live spike: %g, want +Inf", got)
	}
	if err := c.SubBatch(ctx, []float64{math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if got, err = c.Sum(ctx); err != nil || got != 1 {
		t.Fatalf("after deleting spike: %g (%v), want 1", got, err)
	}
}

// TestE2ESubSpecialMultiplicityAcrossWire: special multiplicities survive
// the partial codec, so deleting a non-finite value that arrived via a
// flushed combiner partial is still exact — two NaNs shipped in one
// partial need two deletions, not one.
func TestE2ESubSpecialMultiplicityAcrossWire(t *testing.T) {
	c, _ := startService(t, sumdsrv.Options{})
	ctx := context.Background()
	co, err := c.NewCombiner("")
	if err != nil {
		t.Fatal(err)
	}
	co.AddSlice([]float64{7, math.NaN(), math.NaN()})
	if err := co.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.SubBatch(ctx, []float64{math.NaN()}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got) {
		t.Fatalf("one NaN deleted of two shipped: %g, want NaN (a NaN survives)", got)
	}
	if err := c.SubBatch(ctx, []float64{math.NaN()}); err != nil {
		t.Fatal(err)
	}
	if got, err = c.Sum(ctx); err != nil || got != 7 {
		t.Fatalf("both NaNs deleted: %g (%v), want 7", got, err)
	}

	// The reverse direction: a combiner that only retracted an Inf ships
	// a −1 multiplicity that must cancel a live Inf on the service.
	if err := c.AddBatch(ctx, []float64{math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	co2, err := c.NewCombiner("")
	if err != nil {
		t.Fatal(err)
	}
	co2.Sub(math.Inf(1))
	if err := co2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err = c.Sum(ctx); err != nil || got != 7 {
		t.Fatalf("net-negative Inf partial did not cancel: %g (%v), want 7", got, err)
	}
}

// TestE2ESubJSONAndStats: the JSON body form works on /v1/sub, the
// response reports the removed count, and the deletion counters surface in
// /v1/stats.
func TestE2ESubJSONAndStats(t *testing.T) {
	c, hs := startService(t, sumdsrv.Options{})
	ctx := context.Background()
	if err := c.AddBatch(ctx, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Post(hs.URL+"/v1/sub", "application/json",
		strings.NewReader(`{"values":[2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr sumdsrv.SubResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Removed != 2 {
		t.Fatalf("removed = %d, want 2", sr.Removed)
	}

	if got, err := c.Sum(ctx); err != nil || got != 1 {
		t.Fatalf("after JSON sub: %g (%v), want 1", got, err)
	}

	stats, err := hs.Client().Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var st sumdsrv.StatsResponse
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Removed != 2 || st.SubBatches != 1 {
		t.Fatalf("stats removed=%d sub_batches=%d, want 2,1", st.Removed, st.SubBatches)
	}
}

// TestE2ESubRejections: malformed deletion payloads are rejected with 400
// and leave the accumulated state untouched.
func TestE2ESubRejections(t *testing.T) {
	c, hs := startService(t, sumdsrv.Options{})
	ctx := context.Background()
	if err := c.AddBatch(ctx, []float64{7}); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]struct {
		ct   string
		data string
	}{
		"odd-binary":    {"application/octet-stream", "abc"},
		"bad-json":      {"application/json", `{"values":[1,`},
		"trailing-json": {"application/json", `{"values":[1]} {"values":[2]}`},
		"unknown-field": {"application/json", `{"value":[1]}`},
	} {
		resp, err := hs.Client().Post(hs.URL+"/v1/sub", body.ct, strings.NewReader(body.data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got, err := c.Sum(ctx); err != nil || got != 7 {
		t.Fatalf("state disturbed by rejected payloads: %g (%v), want 7", got, err)
	}
}
