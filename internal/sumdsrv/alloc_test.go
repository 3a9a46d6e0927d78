// Allocations per request, counted rather than timed: each route's heap
// allocations per Server.ServeHTTP call, over requests built before the
// count starts, so request construction is excluded. The bounds are the
// counts measured when the test was written. A change that adds an
// allocation to a request path fails here; one that removes an
// allocation should lower its bound. The server runs one shard, because
// a plain /v1/sum allocates per shard and the default shard count
// follows GOMAXPROCS.
package sumdsrv_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"parsum/internal/keyed"
	"parsum/internal/sumdsrv"
)

func TestAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime and sync.Pool change allocation counts")
	}
	xs := make([]float64, 1024)
	body := make([]byte, 0, 8*len(xs))
	for i := range xs {
		xs[i] = float64(i) + 0.5
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(xs[i]))
	}
	st, err := keyed.New(keyed.Options{Engine: "dense", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.Add("k", xs[:4])
	envelope, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name, method, target string
		body                 []byte
		sync, async          float64
	}{
		{"add", http.MethodPost, "/v1/add", body, 7, 7},
		{"keyed-add", http.MethodPost, "/v1/add?key=k", body, 9, 9},
		{"keyed-sub", http.MethodPost, "/v1/sub?key=k", body, 9, 9},
		{"sum", http.MethodGet, "/v1/sum", nil, 8, 8},
		{"keyed-sum", http.MethodGet, "/v1/sum?key=k", nil, 8, 8},
		{"keyed-partial", http.MethodPost, "/v1/keyed/partial", envelope, 15, 15},
	}
	const runs, trials = 50, 3
	for _, async := range []bool{false, true} {
		mode := "sync"
		if async {
			mode = "async"
		}
		t.Run(mode, func(t *testing.T) {
			srv, err := sumdsrv.New(sumdsrv.Options{Shards: 1, KeyPartitions: 1, Async: async})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			w := &discardWriter{h: http.Header{}}
			for _, r := range routes {
				// Warm each route once, so the key exists and pools are
				// primed before any count.
				srv.ServeHTTP(w, request(r.method, r.target, r.body))
				if w.code != http.StatusOK {
					t.Fatalf("warm-up %s: status %d", r.name, w.code)
				}
			}
			for _, r := range routes {
				want := r.sync
				if async {
					want = r.async
				}
				reqs := make([]*http.Request, trials*(runs+1))
				for i := range reqs {
					reqs[i] = request(r.method, r.target, r.body)
				}
				next, best := 0, math.Inf(1)
				for try := 0; try < trials; try++ {
					best = math.Min(best, testing.AllocsPerRun(runs, func() {
						srv.ServeHTTP(w, reqs[next])
						next++
					}))
				}
				if w.code != http.StatusOK {
					t.Fatalf("%s: status %d", r.name, w.code)
				}
				t.Logf("%s %s: %.0f allocs per request", mode, r.name, best)
				if best > want {
					t.Errorf("%s %s: %.0f allocs per request, want at most %.0f", mode, r.name, best, want)
				}
			}
		})
	}
}

// request builds one request with a binary body (nil for none).
func request(method, target string, body []byte) *http.Request {
	if body == nil {
		return httptest.NewRequest(method, target, nil)
	}
	r := httptest.NewRequest(method, target, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/octet-stream")
	return r
}
