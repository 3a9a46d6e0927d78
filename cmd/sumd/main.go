// Command sumd is the distributed exact-aggregation daemon: an HTTP merge
// service backed by a sharded superaccumulator. Workers combine their
// slice of the input locally and push serialized exact partials (or raw
// value batches); sumd merges them carry-free and serves the correctly
// rounded sum, bit-identical to summing the concatenated input
// sequentially regardless of how the work was partitioned or interleaved.
//
// Usage:
//
//	sumd -addr :8372 -engine dense -shards 8
//	sumd -async -queue 512 -maxbatch 8192
//	sumd -partitions 16   # keyed-store stripes for /v1/add?key=…
//
// With -async, /v1/add and /v1/sub go through the batched ingestion
// front-end: a bounded queue whose flusher takes everything already
// queued, up to -maxbatch values, whenever it is free (group commit with
// no added wait), and 429 with Retry-After when the queue is full (sync
// ingestion remains the default). -maxdelay is accepted for old command
// lines and ignored. Every ingest counter is served in Prometheus text
// format on GET /metrics.
//
// With -wal DIR, every state-mutating request is journaled to an
// append-only CRC-framed log in DIR and committed before it is
// acknowledged; on startup the daemon replays the directory and resumes
// with bit-identical pre-crash sums. -fsync picks the commit durability
// (always | interval | off), -segbytes the segment rotation threshold,
// and -snapshot-every N writes a state snapshot (truncating the
// replayed log) every N journaled mutations:
//
//	sumd -wal /var/lib/sumd/wal -fsync always -snapshot-every 100000
//
// Endpoints (see internal/sumdsrv): POST /v1/add, POST/GET /v1/partial,
// GET /v1/sum, POST /v1/reset, GET /v1/stats, GET /v1/healthz,
// GET /metrics — plus the keyed surface: /v1/add?key=, /v1/sum?key=,
// GET /v1/keys, POST/GET /v1/keyed/partial.
//
// The HTTP server is hardened against stuck and malicious peers with
// -read-header-timeout, -read-timeout, -write-timeout, and
// -idle-timeout (see internal/httpd for the defaults; negative
// disables one).
//
// Exit status: 0 on clean shutdown (SIGINT/SIGTERM), 1 on serve error,
// 2 on usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parsum/internal/httpd"
	"parsum/internal/sumdsrv"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse args, bind, serve until ctx is
// cancelled. It returns the process exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sumd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8372", "listen address (host:port; port 0 picks a free port)")
		engName  = fs.String("engine", "dense", "summation engine backing the service")
		shards   = fs.Int("shards", 0, "writer-stripe count (0 = GOMAXPROCS)")
		parts    = fs.Int("partitions", 0, "keyed-store partition count (0 = GOMAXPROCS)")
		maxBody  = fs.Int64("maxbody", 0, "request-body cap in bytes (0 = 64 MiB default)")
		async    = fs.Bool("async", false, "batch /v1/add and /v1/sub through the bounded-queue ingestion front-end")
		queue    = fs.Int("queue", 0, "async: bounded-queue capacity in requests (0 = 256)")
		maxBatch = fs.Int("maxbatch", 0, "async: most values one flush takes from the queue (0 = 4096)")
		maxDelay = fs.Duration("maxdelay", 0, "async: ignored; flushes never wait (kept so old command lines parse)")
		flushers = fs.Int("flushers", 0, "async: concurrent flusher goroutines (0 = 1)")
		walDir   = fs.String("wal", "", "write-ahead-log directory; journal every ingest and recover on startup (empty = no durability)")
		fsyncPol = fs.String("fsync", "", "wal: fsync policy: always, interval, or off (default always)")
		segBytes = fs.Int64("segbytes", 0, "wal: segment rotation threshold in bytes (0 = 64 MiB)")
		snapN    = fs.Int("snapshot-every", 0, "wal: write a snapshot every N journaled mutations (0 = never)")
		timeouts = httpd.Flags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sumd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !*async && (*queue != 0 || *maxBatch != 0 || *maxDelay != 0 || *flushers != 0) {
		fmt.Fprintln(stderr, "sumd: -queue/-maxbatch/-maxdelay/-flushers require -async")
		return 2
	}
	if *walDir == "" && (*fsyncPol != "" || *segBytes != 0 || *snapN != 0) {
		fmt.Fprintln(stderr, "sumd: -fsync/-segbytes/-snapshot-every require -wal")
		return 2
	}
	srv, err := sumdsrv.New(sumdsrv.Options{
		Engine: *engName, Shards: *shards, KeyPartitions: *parts, MaxBodyBytes: *maxBody,
		Async: *async, QueueLen: *queue, MaxBatch: *maxBatch, Flushers: *flushers,
		WALDir: *walDir, WALFsync: *fsyncPol, WALSegBytes: *segBytes, WALSnapshotEvery: *snapN,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sumd:", err)
		return 2
	}
	// Drain the async batcher (and seal the journal) on every exit path
	// so accepted batches are never dropped.
	defer srv.Close()
	if *walDir != "" {
		rec := srv.Recovery()
		fmt.Fprintf(stdout, "sumd: wal recovered records=%d snapshot=%t torn=%t truncated_bytes=%d duration_ms=%.3f\n",
			rec.Records, rec.SnapshotLoaded, rec.Torn, rec.TruncatedBytes, rec.DurationMS)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sumd:", err)
		return 1
	}
	mode := "sync"
	if *async {
		mode = "async"
	}
	fmt.Fprintf(stdout, "sumd: engine=%s ingest=%s listening on %s\n", srv.Engine(), mode, ln.Addr())

	hs := timeouts.Server(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			fmt.Fprintln(stderr, "sumd: shutdown:", err)
			return 1
		}
		fmt.Fprintln(stdout, "sumd: shut down")
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "sumd:", err)
		return 1
	}
}
