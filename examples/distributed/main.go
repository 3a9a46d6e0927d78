// Distributed exact aggregation: N workers each combine a slice of the
// input locally and push serialized exact partials to one sumd merge
// service over real HTTP — the paper's single-round MapReduce summation
// (map-side combiner → reducer) with the shuffle crossing an actual
// socket instead of a modeled one.
//
// The service's final sum is bit-identical to parsum.Sum of the whole
// input on one goroutine, because every hop exchanges exact
// (α,β)-regularized superaccumulator partials: the split, the flush
// cadence, and the arrival order cannot change a single bit.
//
// Run with:
//
//	go run ./examples/distributed [-workers 8] [-n 2000000] [-async]
//
// With -async the service runs the batched ingestion front-end and the
// workers ship raw value batches instead of combined partials: requests
// coalesce in the service's bounded queue, shed requests are retried on
// 429 with jittered backoff, and the final sum is STILL bit-identical —
// group commit makes batching invisible to the result.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"parsum"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

func main() {
	var (
		workers = flag.Int("workers", 8, "worker count (each pushes its own partials)")
		n       = flag.Int("n", 2_000_000, "total input size")
		async   = flag.Bool("async", false, "ship raw batches through the batched ingestion front-end instead of combined partials")
	)
	flag.Parse()
	if *workers < 1 || *n < 1 {
		fail(fmt.Errorf("-workers and -n must be >= 1 (got %d, %d)", *workers, *n))
	}

	// The dataset: mixed-sign values spanning hundreds of orders of
	// magnitude — the shape that makes naive distributed summation depend
	// on placement and arrival order.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, *n)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(300)-150))
	}

	// Start the merge service on a loopback socket, exactly as `sumd`
	// would run it as a standalone daemon.
	srv, err := sumdsrv.New(sumdsrv.Options{
		Shards: *workers,
		Async:  *async, // default queue length, batch cap and flusher count; see internal/batch
	})
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("sumd listening on %s\n", url)
	if *async {
		fmt.Printf("%d workers streaming %d values as raw batches through the async ingest queue\n\n", *workers, len(xs))
	} else {
		fmt.Printf("%d workers combining %d values, pushing exact partials over HTTP\n\n", *workers, len(xs))
	}

	start := time.Now()
	var wg sync.WaitGroup
	var wireBytes, retried int64
	var partials int
	var mu sync.Mutex
	per := len(xs) / *workers
	for w := 0; w < *workers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == *workers-1 {
			hi = len(xs)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			client := sumdclient.New(url, nil)
			if *async {
				// Raw batches into the bounded queue; a shed batch left no
				// trace, so the client blindly re-sends it with backoff.
				client.Retry429 = 100
				const chunk = 4096
				for at := lo; at < hi; at += chunk {
					end := at + chunk
					if end > hi {
						end = hi
					}
					if err := client.AddBatch(context.Background(), xs[at:end]); err != nil {
						fail(err)
					}
					mu.Lock()
					wireBytes += int64(8 * (end - at))
					partials++
					mu.Unlock()
				}
				mu.Lock()
				retried += client.Retried429()
				mu.Unlock()
				return
			}
			// Each worker is its own "process": a local exact combiner and
			// an HTTP client. Flush a few times mid-stream to show cadence
			// does not matter.
			acc := parsum.NewAccumulator()
			chunk := (hi - lo + 3) / 4
			for at := lo; at < hi; at += chunk {
				end := at + chunk
				if end > hi {
					end = hi
				}
				acc.AddSlice(xs[at:end])
				blob, err := acc.MarshalBinary()
				if err != nil {
					fail(err)
				}
				if err := client.PushPartial(context.Background(), blob); err != nil {
					fail(err)
				}
				mu.Lock()
				wireBytes += int64(len(blob))
				partials++
				mu.Unlock()
				acc.Reset()
			}
		}(w, lo, hi)
	}
	wg.Wait()

	client := sumdclient.New(url, nil)
	distributed, err := client.Sum(context.Background())
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	sequential := parsum.Sum(xs)
	fmt.Printf("distributed sum: %.17g  (bits %016x)\n", distributed, math.Float64bits(distributed))
	fmt.Printf("sequential sum:  %.17g  (bits %016x)\n", sequential, math.Float64bits(sequential))
	if math.Float64bits(distributed) == math.Float64bits(sequential) {
		fmt.Println("bit-identical: YES")
	} else {
		fmt.Println("bit-identical: NO (this is a bug)")
		os.Exit(1)
	}
	if *async {
		fmt.Printf("\n%d batch requests, %d wire bytes, %d retried after 429, %.2fs\n",
			partials, wireBytes, retried, elapsed.Seconds())
		fmt.Println("the ingest queue coalesced whatever arrived together; group commit kept every bit")
	} else {
		fmt.Printf("\n%d partials, %d wire bytes total (raw input: %d bytes), %.2fs\n",
			partials, wireBytes, 8*len(xs), elapsed.Seconds())
		fmt.Println("the shuffle ships superaccumulator partials, not values: wire cost is per-worker, not per-element")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "distributed:", err)
	os.Exit(1)
}
