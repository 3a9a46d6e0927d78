// Degraded-health e2e: a WAL durability failure must flip /v1/healthz
// and /v1/readyz to 503 — "acked ⇒ durable" is never silently violated
// — and a subsequent durable success must restore 200. A sync write
// whose commit failed must still be applied, because the journal writes
// its frame with the next successful commit.
package sumdsrv_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsum/internal/sumdsrv"
)

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthDegradesOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	// SegBytes 1 forces a rotation on every commit, so removing the log
	// directory makes the next journaled write fail (the rotation cannot
	// create the next segment file) — a real durability failure without
	// resorting to permission tricks, which root would ignore.
	_, c, hs := startServer(t, sumdsrv.Options{WALDir: dir, WALFsync: "always", WALSegBytes: 1})
	ctx := context.Background()

	if st, body := getStatus(t, hs.URL+"/v1/healthz"); st != http.StatusOK {
		t.Fatalf("healthy healthz = %d (%s), want 200", st, body)
	}
	if st, body := getStatus(t, hs.URL+"/v1/readyz"); st != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy readyz = %d (%q), want 200 ok", st, body)
	}

	if err := c.AddBatch(ctx, []float64{1, 2}); err != nil {
		t.Fatalf("first add: %v", err)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(ctx, []float64{3}); err == nil {
		t.Fatal("add with a destroyed WAL directory must fail")
	}

	st, body := getStatus(t, hs.URL+"/v1/healthz")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz = %d (%s), want 503", st, body)
	}
	var h struct {
		OK       bool   `json:"ok"`
		Degraded bool   `json:"degraded"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("decoding healthz %q: %v", body, err)
	}
	if h.OK || !h.Degraded || h.Error == "" {
		t.Fatalf("degraded healthz payload = %+v, want ok=false degraded=true with an error", h)
	}
	if st, body := getStatus(t, hs.URL+"/v1/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded readyz = %d (%q), want 503 degraded", st, body)
	}
	// The alerting counter must have recorded the failure.
	if ws := walStats(t, hs.URL); ws.Errors == 0 || ws.LastError == "" {
		t.Fatalf("wal stats after failure = %+v, want Errors > 0", ws)
	}

	// Restore the directory: the next durable commit repairs health.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(ctx, []float64{4}); err != nil {
		t.Fatalf("add after restoring the WAL directory: %v", err)
	}
	if st, body := getStatus(t, hs.URL+"/v1/healthz"); st != http.StatusOK {
		t.Fatalf("recovered healthz = %d (%s), want 200", st, body)
	}
	if st, _ := getStatus(t, hs.URL+"/v1/readyz"); st != http.StatusOK {
		t.Fatalf("recovered readyz = %d, want 200", st)
	}
}

// TestSyncCommitFailureStillApplies: a failed commit leaves the frame
// pending in the journal, and the next successful commit writes it. So
// a sync write answered 500 must already be in the live state, or the
// sum would change across a restart.
func TestSyncCommitFailureStillApplies(t *testing.T) {
	dir := t.TempDir()
	opt := sumdsrv.Options{WALDir: dir, WALFsync: "always", WALSegBytes: 1}
	srv, c, hs := startServer(t, opt)
	ctx := context.Background()
	// SegBytes 1 rotates before every commit but the first; a directory
	// squatting on the next segment's name makes that rotation fail.
	block := filepath.Join(dir, "wal-0000000000000002.seg")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(ctx, []float64{1}); err != nil {
		t.Fatalf("add before the failure: %v", err)
	}
	failed := c.AddBatch(ctx, []float64{100})
	if failed == nil || !strings.Contains(failed.Error(), "HTTP 500") {
		t.Fatalf("add whose commit fails: err = %v, want HTTP 500", failed)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(ctx, []float64{10000}); err != nil {
		t.Fatalf("add after clearing the failure: %v", err)
	}
	live, err := c.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if live != 10101 {
		t.Fatalf("live sum = %v, want 10101: the batch answered 500 is missing", live)
	}
	if !strings.Contains(failed.Error(), "applied") {
		t.Fatalf("500 body %q does not say the batch was applied", failed)
	}

	hs.Close()
	srv.Close()
	_, c2, _ := startServer(t, opt)
	recovered, err := c2.Sum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != live {
		t.Fatalf("sum after restart = %v, live sum was %v", recovered, live)
	}
}

// A server without a WAL has nothing to degrade: readyz mirrors
// healthz at 200.
func TestReadyzWithoutWAL(t *testing.T) {
	_, _, hs := startServer(t, sumdsrv.Options{})
	if st, body := getStatus(t, hs.URL+"/v1/readyz"); st != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("readyz = %d (%q), want 200 ok", st, body)
	}
}
