// Allocation bounds of the batch decoder: a binary body decodes in
// fixed-size chunks straight into its []float64, and a declared
// Content-Length presizes that slice at most one bounded chunk past the
// bytes that actually arrived.
package sumdsrv_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"parsum/internal/sumdsrv"
)

// discardWriter is a ResponseWriter that keeps only the status, so an
// allocation count covers the handler and not a recorder's buffers.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// bytesPerCall returns the mean heap bytes allocated by one call of f.
func bytesPerCall(runs int, f func(i int)) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// prebuilt returns n identical binary POST requests, built before any
// measurement starts.
func prebuilt(n int, target string, body []byte) []*http.Request {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", "application/octet-stream")
	}
	return reqs
}

func TestBinaryKeyedAddAllocBytes(t *testing.T) {
	srv, err := sumdsrv.New(sumdsrv.Options{Shards: 1, KeyPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := make([]byte, 0, 8*1024)
	for i := 0; i < 1024; i++ {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(i)+0.5))
	}
	const runs = 40
	reqs := prebuilt(runs+1, "/v1/add?key=k", body)
	w := &discardWriter{h: http.Header{}}
	srv.ServeHTTP(w, reqs[runs]) // the key exists before measuring
	if w.code != http.StatusOK {
		t.Fatalf("warm-up add: status %d", w.code)
	}
	got := bytesPerCall(runs, func(i int) { srv.ServeHTTP(w, reqs[i]) })
	if w.code != http.StatusOK {
		t.Fatalf("add: status %d", w.code)
	}
	if got > 16<<10 {
		t.Fatalf("keyed binary /v1/add of 1024 values allocates %d B per request, want at most 16 KiB", got)
	}
	t.Logf("keyed binary /v1/add of 1024 values: %d B per request", got)
}

// TestForgedContentLengthBounded: a request that declares the whole body
// cap but sends 8 bytes is malformed, and the declared length must not
// size any allocation.
func TestForgedContentLengthBounded(t *testing.T) {
	srv, err := sumdsrv.New(sumdsrv.Options{Shards: 1, KeyPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const runs = 20
	reqs := prebuilt(runs, "/v1/add?key=k", make([]byte, 8))
	for _, r := range reqs {
		r.ContentLength = sumdsrv.MaxBodyBytes
	}
	w := &discardWriter{h: http.Header{}}
	got := bytesPerCall(runs, func(i int) { srv.ServeHTTP(w, reqs[i]) })
	if w.code != http.StatusBadRequest {
		t.Fatalf("forged Content-Length: status %d, want 400", w.code)
	}
	if got > 64<<10 {
		t.Fatalf("forged Content-Length allocates %d B per request, want at most 64 KiB", got)
	}
	t.Logf("forged Content-Length: %d B per request", got)
}
