// End-to-end tests of the keyed aggregation surface over real HTTP:
// per-key bit-identity to parsum.Sum through both the sync and async
// ingest paths, the keyed anti-entropy exchange (binary and JSON, both
// push orders converging), key-range pulls, the rejection gauntlet
// (400/404/409/501), and the keyed stats/metrics families.
package sumdsrv_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/gen"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// TestKeyedE2EBitIdentical is the acceptance property of the keyed
// store carried across the socket: concurrent clients spraying keyed
// adds (and keyed deletions) over both body forms, for several
// partition counts and through both the sync and async ingest paths —
// then every key's served sum must be bit-identical to parsum.Sum over
// exactly that key's surviving multiset, and the global sum must be
// untouched by any of it.
func TestKeyedE2EBitIdentical(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 8000, Delta: 1000, Seed: 41}).Slice()
	for _, async := range []bool{false, true} {
		for _, partitions := range []int{1, 4} {
			opt := sumdsrv.Options{Shards: 2, KeyPartitions: partitions}
			if async {
				opt.Async = true
				opt.QueueLen = 256
				opt.MaxBatch = 64
			}
			c, hs := startService(t, opt)
			ctx := context.Background()

			const clients = 6
			const keys = 9
			parts := splitSlices(xs, clients)
			oracles := make([]map[string][]float64, clients)
			var wg sync.WaitGroup
			for w, part := range parts {
				wg.Add(1)
				oracles[w] = make(map[string][]float64)
				go func(w int, part []float64, mine map[string][]float64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(13*w + partitions)))
					for len(part) > 0 {
						n := 1 + r.Intn(32)
						if n > len(part) {
							n = len(part)
						}
						chunk := part[:n]
						part = part[n:]
						key := fmt.Sprintf("key-%03d", r.Intn(keys))
						var err error
						switch r.Intn(3) {
						case 0: // binary body, key in the query
							err = c.AddKeyed(ctx, key, chunk)
						case 1: // JSON body carrying the key field
							body, _ := jsonBatch(key, chunk)
							var resp *http.Response
							resp, err = hs.Client().Post(hs.URL+"/v1/add", "application/json", bytesReader(body))
							if err == nil {
								resp.Body.Close()
								if resp.StatusCode != 200 {
									err = fmt.Errorf("JSON keyed add: status %d", resp.StatusCode)
								}
							}
						default: // net insertion via the sub path: -chunk, then +chunk twice
							err = c.SubKeyed(ctx, key, chunk)
							if err == nil {
								err = c.AddKeyed(ctx, key, chunk)
							}
							if err == nil {
								err = c.AddKeyed(ctx, key, chunk)
							}
						}
						if err != nil {
							t.Errorf("client %d: %v", w, err)
							return
						}
						mine[key] = append(mine[key], chunk...)
					}
				}(w, part, oracles[w])
			}
			wg.Wait()

			want := make(map[string][]float64)
			for _, mine := range oracles {
				for key, vs := range mine {
					want[key] = append(want[key], vs...)
				}
			}
			for key, vs := range want {
				got, ok, err := c.SumKey(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("async=%v partitions=%d: key %q missing", async, partitions, key)
				}
				ref := parsum.Sum(vs)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Errorf("async=%v partitions=%d key=%s: served %x != parsum.Sum %x",
						async, partitions, key, math.Float64bits(got), math.Float64bits(ref))
				}
			}
			// Keyed traffic must not leak into the global accumulator.
			if global, err := c.Sum(ctx); err != nil || global != 0 {
				t.Errorf("async=%v: global sum disturbed by keyed traffic: %g err=%v", async, global, err)
			}
			listed, err := c.Keys(ctx, "", "")
			if err != nil {
				t.Fatal(err)
			}
			if len(listed) != len(want) {
				t.Errorf("async=%v: /v1/keys lists %d keys, oracle has %d", async, len(listed), len(want))
			}

			st := fetchStats(t, hs.URL)
			if st.Keyed.Partitions == 0 || st.Keyed.Keys != len(want) {
				t.Errorf("keyed stats: %+v, want %d keys", st.Keyed, len(want))
			}
			if st.Keyed.Values == 0 || st.Keyed.Batches == 0 || st.Keyed.Removed == 0 {
				t.Errorf("keyed counters never moved: %+v", st.Keyed)
			}
			if async {
				if st.Async == nil || st.Async.KeyedEnqueued == 0 ||
					st.Async.KeyedFlushedRequests != st.Async.KeyedEnqueued {
					t.Errorf("async keyed ledger not drained: %+v", st.Async)
				}
			}
		}
	}
}

func jsonBatch(key string, xs []float64) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"key":%q,"values":[`, key)
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteString("]}")
	return []byte(b.String()), nil
}

// TestKeyedE2EExchangeConverges drives the anti-entropy loop between
// real servers: A and B hold overlapping keyed state (specials
// included), exchange pre-exported envelopes in opposite orders, and
// must converge to bit-identical per-key sums — which also must match
// parsum.Sum of the unioned multisets. A third server fed the same
// state through the JSON partial form must land on the same bits.
func TestKeyedE2EExchangeConverges(t *testing.T) {
	ctx := context.Background()
	ca, _ := startService(t, sumdsrv.Options{Shards: 1, KeyPartitions: 3})
	cb, _ := startService(t, sumdsrv.Options{Shards: 2, KeyPartitions: 5})

	dataA := map[string][]float64{
		"acct-1": {1e300, 1, -1e300},
		"acct-2": {math.Inf(1), 1e9},
		"shared": {0x1p-1074, 2.5},
	}
	dataB := map[string][]float64{
		"acct-3": {math.Inf(-1), -42},
		"shared": {-2.5, 0x1p-1074, 7},
	}
	for key, vs := range dataA {
		if err := ca.AddKeyed(ctx, key, vs); err != nil {
			t.Fatal(err)
		}
	}
	for key, vs := range dataB {
		if err := cb.AddKeyed(ctx, key, vs); err != nil {
			t.Fatal(err)
		}
	}

	// Export both sides BEFORE any merge, then push in opposite orders.
	blobA, err := ca.PullKeyed(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := cb.PullKeyed(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ca.PushKeyed(ctx, blobB); err != nil || n != len(dataB) {
		t.Fatalf("push B into A: merged=%d err=%v", n, err)
	}
	if n, err := cb.PushKeyed(ctx, blobA); err != nil || n != len(dataA) {
		t.Fatalf("push A into B: merged=%d err=%v", n, err)
	}

	union := map[string][]float64{}
	for _, data := range []map[string][]float64{dataA, dataB} {
		for key, vs := range data {
			union[key] = append(union[key], vs...)
		}
	}
	for key, vs := range union {
		want := parsum.Sum(vs)
		for name, c := range map[string]*sumdclient.Client{"A": ca, "B": cb} {
			got, ok, err := c.SumKey(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("server %s: key %q missing after exchange", name, key)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("server %s key %s: %x, want %x (parsum.Sum of union)",
					name, key, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	// JSON path: a third server fed both sides' partials converges too.
	cc, _ := startService(t, sumdsrv.Options{Shards: 1, KeyPartitions: 7})
	engine, psA, err := ca.PullKeyedPartials(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if engine != "dense" {
		t.Fatalf("pulled engine %q", engine)
	}
	// A already merged B, so A's partials alone carry the whole union.
	if n, err := cc.PushKeyedPartials(ctx, psA); err != nil || n != len(union) {
		t.Fatalf("JSON push into C: merged=%d err=%v", n, err)
	}
	for key, vs := range union {
		got, ok, err := cc.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("server C key %q: ok=%v err=%v", key, ok, err)
		}
		if want := parsum.Sum(vs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("server C key %s: %x, want %x", key, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestKeyedE2ERangePull pins the rebalance hop: a range pull ships
// exactly the keys in [lo, hi), and pushing it to a fresh server
// reproduces exactly those keys.
func TestKeyedE2ERangePull(t *testing.T) {
	ctx := context.Background()
	src, _ := startService(t, sumdsrv.Options{KeyPartitions: 4})
	for i := 0; i < 10; i++ {
		if err := src.AddKeyed(ctx, fmt.Sprintf("k%02d", i), []float64{float64(i) + 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := src.Keys(ctx, "k03", "k07")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys[0] != "k03" || keys[3] != "k06" {
		t.Fatalf("ranged /v1/keys = %v", keys)
	}
	blob, err := src.PullKeyed(ctx, "k03", "k07")
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := startService(t, sumdsrv.Options{KeyPartitions: 1})
	if n, err := dst.PushKeyed(ctx, blob); err != nil || n != 4 {
		t.Fatalf("range push: merged=%d err=%v", n, err)
	}
	got, err := dst.Keys(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != "k03" || got[3] != "k06" {
		t.Fatalf("destination keys = %v", got)
	}
	if v, ok, err := dst.SumKey(ctx, "k05"); err != nil || !ok || v != 5.5 {
		t.Fatalf("rebalanced k05 = (%v, %v, %v)", v, ok, err)
	}
}

// TestKeyedE2ERejections is the keyed failure gauntlet: every rejection
// carries the right status code and leaves the keyed store untouched.
func TestKeyedE2ERejections(t *testing.T) {
	ctx := context.Background()
	c, hs := startService(t, sumdsrv.Options{KeyPartitions: 2})
	if err := c.AddKeyed(ctx, "good", []float64{1.5}); err != nil {
		t.Fatal(err)
	}

	post := func(path, ct, body string) int {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+path, ct, bytesReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Query key disagreeing with the body key → 400.
	if got := post("/v1/add?key=a", "application/json", `{"key":"b","values":[1]}`); got != 400 {
		t.Errorf("conflicting keys: status %d, want 400", got)
	}
	// Over-length key → 400 at the edge, not a store panic.
	long := strings.Repeat("k", parsum.MaxKeyLen+1)
	if got := post("/v1/add?key="+long, "application/octet-stream", ""); got != 400 {
		t.Errorf("oversized key: status %d, want 400", got)
	}
	if got := get("/v1/sum?key=" + long); got != 400 {
		t.Errorf("oversized key sum: status %d, want 400", got)
	}
	// Unknown key → 404.
	if _, ok, err := c.SumKey(ctx, "never-seen"); err != nil || ok {
		t.Errorf("unknown key: ok=%v err=%v, want miss", ok, err)
	}
	// Garbage envelope → 400; truncated-but-magic envelope → 400.
	if got := post("/v1/keyed/partial", "application/octet-stream", "\xDE\xAD\xBE\xEF"); got != 400 {
		t.Errorf("garbage envelope: status %d, want 400", got)
	}
	if got := post("/v1/keyed/partial", "application/octet-stream", "\xC9\x01\x05dense"); got != 400 {
		t.Errorf("truncated envelope: status %d, want 400", got)
	}
	// Engine mismatch → 409: a sparse server's envelope pushed here.
	sparse, _ := startService(t, sumdsrv.Options{Engine: "sparse"})
	if err := sparse.AddKeyed(ctx, "x", []float64{2}); err != nil {
		t.Fatal(err)
	}
	blob, err := sparse.PullKeyed(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := post("/v1/keyed/partial", "application/octet-stream", string(blob)); got != 409 {
		t.Errorf("cross-engine envelope: status %d, want 409", got)
	}
	// Malformed JSON partials → 400 (unknown field, trailing data, bad blob).
	if got := post("/v1/keyed/partial", "application/json", `{"partials":[],"extra":1}`); got != 400 {
		t.Errorf("unknown JSON field: status %d, want 400", got)
	}
	if got := post("/v1/keyed/partial", "application/json", `{"partials":[]}{}`); got != 400 {
		t.Errorf("trailing JSON: status %d, want 400", got)
	}
	if got := post("/v1/keyed/partial", "application/json", `{"partials":[{"key":"k","blob":"3q2+7w=="}]}`); got != 400 {
		t.Errorf("garbage JSON blob: status %d, want 400", got)
	}
	// Unknown pull format → 400.
	if got := get("/v1/keyed/partial?format=xml"); got != 400 {
		t.Errorf("unknown format: status %d, want 400", got)
	}

	// Nothing above may have disturbed the store.
	if v, ok, err := c.SumKey(ctx, "good"); err != nil || !ok || v != 1.5 {
		t.Errorf("keyed state disturbed by rejections: (%v, %v, %v)", v, ok, err)
	}
	if keys, err := c.Keys(ctx, "", ""); err != nil || len(keys) != 1 {
		t.Errorf("key set disturbed by rejections: %v err=%v", keys, err)
	}

	// Reset wipes keyed state alongside the global accumulator.
	if err := c.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if keys, err := c.Keys(ctx, "", ""); err != nil || len(keys) != 0 {
		t.Errorf("reset left keyed state: %v err=%v", keys, err)
	}
}

// plainOnlySink forwards the global Sink surface and deliberately hides
// KeyedSink — the WrapSink shape that must degrade async keyed
// ingestion to 501 without breaking unkeyed traffic.
type plainOnlySink struct{ real batch.Sink }

func (p plainOnlySink) AddBatch(xs []float64) { p.real.AddBatch(xs) }
func (p plainOnlySink) SubBatch(xs []float64) { p.real.SubBatch(xs) }

func TestKeyedE2EAsync501WhenSinkHidesKeyed(t *testing.T) {
	ctx := context.Background()
	c, _ := startService(t, sumdsrv.Options{
		Async: true, QueueLen: 8, MaxBatch: 8,
		WrapSink: func(real batch.Sink) batch.Sink { return plainOnlySink{real: real} },
	})
	err := c.AddKeyed(ctx, "k", []float64{1})
	if err == nil || !strings.Contains(err.Error(), "HTTP 501") {
		t.Errorf("keyed add through keyless sink: err = %v, want HTTP 501", err)
	}
	// Unkeyed ingestion through the same wrapped sink still works.
	if err := c.AddBatch(ctx, []float64{2.5}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Sum(ctx)
	if err != nil || got != 2.5 {
		t.Fatalf("unkeyed path broken by wrapped sink: %g err=%v", got, err)
	}
}

// TestKeyedE2ECombiner: the keyed map-side combiner — workers
// accumulate disjoint slices of every key locally and flush whole
// stores; the service must serve parsum.Sum bits per key however the
// flushes interleaved.
func TestKeyedE2ECombiner(t *testing.T) {
	ctx := context.Background()
	c, hs := startService(t, sumdsrv.Options{KeyPartitions: 3})
	xs := gen.New(gen.Config{Dist: gen.SumZero, N: 6000, Delta: 800, Seed: 42}).Slice()

	const clients = 4
	const keys = 5
	var wg sync.WaitGroup
	for w, part := range splitSlices(xs, clients) {
		wg.Add(1)
		go func(w int, part []float64) {
			defer wg.Done()
			co, err := c.NewKeyedCombiner("")
			if err != nil {
				t.Error(err)
				return
			}
			r := rand.New(rand.NewSource(int64(900 + w)))
			for i, x := range part {
				co.Add(fmt.Sprintf("key-%d", i%keys), []float64{x})
				if r.Intn(200) == 0 {
					if _, err := co.Flush(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if _, err := co.Flush(ctx); err != nil {
				t.Error(err)
			}
		}(w, part)
	}
	wg.Wait()

	// Rebuild the oracle exactly as the workers dealt values to keys.
	want := make(map[string][]float64)
	for _, part := range splitSlices(xs, clients) {
		for i, x := range part {
			key := fmt.Sprintf("key-%d", i%keys)
			want[key] = append(want[key], x)
		}
	}
	for key, vs := range want {
		got, ok, err := c.SumKey(ctx, key)
		if err != nil || !ok {
			t.Fatalf("key %q: ok=%v err=%v", key, ok, err)
		}
		if ref := parsum.Sum(vs); math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("combiner key %s: %x, want %x", key, math.Float64bits(got), math.Float64bits(ref))
		}
	}
	st := fetchStats(t, hs.URL)
	if st.Keyed.Partials == 0 {
		t.Error("combiner flushes never moved the keyed partial counter")
	}

	// The keyed metric families are exposed and lint clean.
	fams, err := batch.LintProm(scrape(t, hs.URL))
	if err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	for _, name := range []string{
		"sumd_keyed_partitions", "sumd_keyed_keys", "sumd_keyed_values_total",
		"sumd_keyed_partials_total", "sumd_keyed_sums_served_total",
	} {
		if fams[name] == nil {
			t.Errorf("exposition is missing keyed family %s", name)
		}
	}
}
