// Tests of the configurable request-body cap: an oversized batch must be
// rejected with 413 before any of it reaches the accumulator, so a
// worker that hits the cap can split and retry without having partially
// ingested the batch.
package sumdsrv_test

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parsum/internal/sumdsrv"
)

// postBinary POSTs raw little-endian float64s to path on hs.
func postBinary(t *testing.T, hs *httptest.Server, path string, xs []float64) *http.Response {
	t.Helper()
	body := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(x))
	}
	resp, err := hs.Client().Post(hs.URL+path, "application/octet-stream", bytesReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func sumBits(t *testing.T, hs *httptest.Server) string {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/v1/sum")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr sumdsrv.SumResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.Bits
}

func TestMaxBodyBytesConfigurable(t *testing.T) {
	// A cap of 80 bytes admits batches of up to 10 float64s.
	srv, err := sumdsrv.New(sumdsrv.Options{MaxBodyBytes: 80})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	small := []float64{1, 2, 3}
	if resp := postBinary(t, hs, "/v1/add", small); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch under the cap: got %d, want 200", resp.StatusCode)
	}
	before := sumBits(t, hs)

	// 11 values = 88 bytes: one byte class over the cap. The whole batch
	// must be refused and the accumulated state untouched.
	big := make([]float64, 11)
	for i := range big {
		big[i] = 1e100
	}
	for _, path := range []string{"/v1/add", "/v1/sub", "/v1/partial"} {
		resp := postBinary(t, hs, path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s over the cap: got %d, want 413", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if after := sumBits(t, hs); after != before {
		t.Fatalf("rejected batches disturbed state: sum bits %s -> %s", before, after)
	}

	// The default-cap server still takes the same 88-byte batch.
	srvDef, err := sumdsrv.New(sumdsrv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hsDef := httptest.NewServer(srvDef)
	defer hsDef.Close()
	if resp := postBinary(t, hsDef, "/v1/add", big); resp.StatusCode != http.StatusOK {
		t.Fatalf("default cap rejected an 88-byte batch: got %d", resp.StatusCode)
	}
}

// TestMaxBodyBytesNegativeRejected: New rejects a negative size option
// instead of reading it as "off" — the body cap and the dedup window
// alike.
func TestMaxBodyBytesNegativeRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  sumdsrv.Options
		want string
	}{
		{"MaxBodyBytes", sumdsrv.Options{MaxBodyBytes: -1}, "body cap"},
		{"DedupWindow", sumdsrv.Options{DedupWindow: -1}, "dedup window"},
	} {
		_, err := sumdsrv.New(tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("negative %s: got err %v, want a %s error", tc.name, err, tc.want)
		}
	}
}
