package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"parsum"
	"parsum/internal/httpd"
	"parsum/internal/proxy"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// Workload shapes. The sizes are the ones the workload table in
// README.md motivates; changing one changes what the benchmark measures.
const (
	bulkArrays     = 4       // bulk-sum rotates through this many pool-sized arrays
	ingestKeys     = 4096    // keyed-ingest keys per connection
	zipfS          = 1.1     // keyed-ingest key skew
	replicatedKeys = 1024    // replicated-keyed keys per connection
	partialBlocks  = 16      // a durable-reducer combiner push carries 16 blocks
	genDelta       = 2000    // exponent range of the generated values
	defaultPool    = 1 << 22 // values in the seeded value pool
)

// workload is one traffic mix. Service workloads start a system and
// drive it through a generator per connection; bulk-sum calls the
// library directly.
type workload struct {
	name  string
	why   string
	batch int // values per write request; 0 for bulk-sum
	start func(cfg *config, rec *Recorder) (*system, error)
	gen   func(seed uint64, conn, nblocks int) generator
}

var workloads = []workload{
	{
		name: "bulk-sum",
		why:  "parsum.Sum over arrays far larger than L2: the kernel does all the work, every service layer is idle",
	},
	{
		name:  "keyed-ingest",
		why:   "sync sumd, Zipf keyed adds/retractions/reads: HTTP handler, client transport and keyed store dominate",
		batch: 1024,
		start: startKeyedIngest,
		gen:   func(seed uint64, conn, n int) generator { return newIngestGen(seed, conn, n) },
	},
	{
		name:  "durable-reducer",
		why:   "async sumd with an fsync-always WAL, raw batches beside combiner partials: batcher, WAL and codec, no keyed store",
		batch: 1024,
		start: startDurable,
		gen:   func(seed uint64, conn, n int) generator { return newDurableGen(seed, conn, n) },
	},
	{
		name:  "replicated-keyed",
		why:   "R=3 quorum proxy over three sumds with small keyed writes: fan-out and per-leg HTTP dominate",
		batch: 256,
		start: startReplicated,
		gen:   func(seed uint64, conn, n int) generator { return newReplicatedGen(seed, conn, n) },
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     uint64
	Measure  time.Duration // measured run; a traced run splits it into untraced and traced halves
	Warmup   time.Duration // untimed; its writes still count toward the models
	Trace    bool
	Pool     int           // values in the seeded pool, and in each bulk-sum array
	Setups   int           // set-up repetitions; setup_s is their median
	Rungs    time.Duration // time budget of each replay rung
	Workdir  string        // WAL directories go here
	Spans    string        // a traced run writes its spans here ("" = nowhere)
}

// ---- op generators ----

type opKind int

const (
	opAdd opKind = iota
	opSub
	opPartial
	opRead
)

// op is one request: a write of block (or of partialBlocks blocks from
// block, for opPartial) to key, or a read of key. The empty key is the
// un-keyed global sum.
type op struct {
	kind  opKind
	key   string
	block int
}

// generator yields one connection's seeded op sequence. The sequence
// depends only on the seed and the connection, never on timing, so the
// replay rungs can feed the same ops to a layer directly.
type generator interface{ next() op }

func connKeys(conn, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "c" + strconv.Itoa(conn) + "-k" + strconv.Itoa(i)
	}
	return keys
}

func connRand(seed uint64, conn int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(conn)+0x9E3779B97F4A7C15))
}

// ingestGen is keyed-ingest: 80% keyed adds, 10% retractions of one of
// the key's earlier batches, 10% keyed reads, keys Zipf-distributed.
type ingestGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	keys    []string
	live    [][]int // per key: blocks added and not yet retracted
	nblocks int
}

func newIngestGen(seed uint64, conn, nblocks int) *ingestGen {
	rng := connRand(seed, conn)
	return &ingestGen{
		rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, ingestKeys-1),
		keys: connKeys(conn, ingestKeys), live: make([][]int, ingestKeys), nblocks: nblocks,
	}
}

func (g *ingestGen) next() op {
	k := int(g.zipf.Uint64())
	switch r := g.rng.IntN(10); {
	case r == 8 && len(g.live[k]) > 0:
		live := g.live[k]
		i := g.rng.IntN(len(live))
		b := live[i]
		live[i] = live[len(live)-1]
		g.live[k] = live[:len(live)-1]
		return op{kind: opSub, key: g.keys[k], block: b}
	case r == 9:
		return op{kind: opRead, key: g.keys[k]}
	default: // a retraction with nothing to retract becomes an add
		b := g.rng.IntN(g.nblocks)
		g.live[k] = append(g.live[k], b)
		return op{kind: opAdd, key: g.keys[k], block: b}
	}
}

// durableGen is durable-reducer: 85% un-keyed adds, 5% combiner pushes
// of partialBlocks aligned blocks, 10% global reads.
type durableGen struct {
	rng     *rand.Rand
	nblocks int
}

func newDurableGen(seed uint64, conn, nblocks int) *durableGen {
	return &durableGen{rng: connRand(seed, conn), nblocks: nblocks}
}

func (g *durableGen) next() op {
	switch r := g.rng.IntN(20); {
	case r < 17:
		return op{kind: opAdd, block: g.rng.IntN(g.nblocks)}
	case r == 17:
		return op{kind: opPartial, block: g.rng.IntN(g.nblocks/partialBlocks) * partialBlocks}
	default:
		return op{kind: opRead}
	}
}

// replicatedGen is replicated-keyed: 90% keyed adds, 10% keyed reads,
// keys uniform.
type replicatedGen struct {
	rng     *rand.Rand
	keys    []string
	nblocks int
}

func newReplicatedGen(seed uint64, conn, nblocks int) *replicatedGen {
	return &replicatedGen{rng: connRand(seed, conn), keys: connKeys(conn, replicatedKeys), nblocks: nblocks}
}

func (g *replicatedGen) next() op {
	k := g.keys[g.rng.IntN(len(g.keys))]
	if g.rng.IntN(10) == 9 {
		return op{kind: opRead, key: k}
	}
	return op{kind: opAdd, key: k, block: g.rng.IntN(g.nblocks)}
}

// ---- systems under test ----

// system is the set of in-process servers one service workload drives,
// each on its own loopback listener and built as the binaries build
// them.
type system struct {
	sumds  []*sumdsrv.Server
	opts   []sumdsrv.Options
	urls   []string // every server, proxy last
	prox   *proxy.Proxy
	target string // where the load clients send requests
	walDir string

	https []*http.Server
	wg    sync.WaitGroup
}

func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := httpd.Timeouts{}.Server(h)
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	url := "http://" + ln.Addr().String()
	s.urls = append(s.urls, url)
	return url, nil
}

// addSumd starts one sumd. A traced system wraps its handler and, in
// async mode, its flush sink.
func (s *system) addSumd(opt sumdsrv.Options, rec *Recorder) (string, error) {
	if rec != nil && opt.Async {
		opt.WrapSink = wrapApply(rec)
	}
	srv, err := sumdsrv.New(opt)
	if err != nil {
		return "", err
	}
	s.sumds = append(s.sumds, srv)
	s.opts = append(s.opts, opt)
	var h http.Handler = srv
	if rec != nil {
		h = traceHandler(rec, "sumdsrv", srv)
	}
	return s.serve(h)
}

// close stops the listeners (front ends first), then the proxy and the
// sumds, draining their batchers and sealing their journals.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(s.https) - 1; i >= 0; i-- {
		_ = s.https[i].Shutdown(ctx)
	}
	s.wg.Wait()
	if s.prox != nil {
		s.prox.Close()
	}
	for _, srv := range s.sumds {
		srv.Close()
	}
}

// discard closes the system and deletes its journal.
func (s *system) discard() {
	s.close()
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir)
	}
}

func startKeyedIngest(_ *config, rec *Recorder) (*system, error) {
	s := &system{}
	url, err := s.addSumd(sumdsrv.Options{}, rec)
	s.target = url
	return s, err
}

func startDurable(cfg *config, rec *Recorder) (*system, error) {
	dir, err := os.MkdirTemp(cfg.Workdir, "wal-")
	if err != nil {
		return nil, err
	}
	s := &system{walDir: dir}
	url, err := s.addSumd(sumdsrv.Options{Async: true, WALDir: dir, WALFsync: "always"}, rec)
	s.target = url
	return s, err
}

func startReplicated(_ *config, rec *Recorder) (*system, error) {
	s := &system{}
	var backends []string
	for i := 0; i < 3; i++ {
		url, err := s.addSumd(sumdsrv.Options{}, rec)
		if err != nil {
			return s, err
		}
		backends = append(backends, url)
	}
	opt := proxy.Options{Backends: backends, Replication: 3, AckMode: proxy.AckQuorum, ReplayEvery: -1}
	if rec != nil {
		opt.Transport = func(string) http.RoundTripper { return legTransport{rec: rec, base: http.DefaultTransport} }
	}
	p, err := proxy.New(opt)
	if err != nil {
		return s, err
	}
	s.prox = p
	var h http.Handler = p
	if rec != nil {
		h = traceHandler(rec, "proxy", p)
	}
	s.target, err = s.serve(h)
	return s, err
}

// waitReady polls every server's /v1/readyz until all answer 200.
func (s *system) waitReady() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for _, url := range s.urls {
		for {
			resp, err := hc.Get(url + "/v1/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/v1/readyz not ready: %v", url, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// localGet serves one GET straight through h, without the network or
// any trace wrapper — for verification reads and counter scrapes.
func localGet(h http.Handler, path string) (int, []byte) {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
	return rw.Code, rw.Body.Bytes()
}

// localSum reads key's sum ("" = global) from h.
func localSum(h http.Handler, key string) (v float64, found bool, err error) {
	path := "/v1/sum"
	if key != "" {
		path += "?key=" + key
	}
	code, body := localGet(h, path)
	if code == http.StatusNotFound {
		return 0, false, nil
	}
	if code != http.StatusOK {
		return 0, false, fmt.Errorf("GET %s: HTTP %d: %s", path, code, body)
	}
	var resp struct {
		Bits string `json:"bits"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, false, err
	}
	bits, err := strconv.ParseUint(resp.Bits, 16, 64)
	return math.Float64frombits(bits), true, err
}

// localStats reads a sumd's /v1/stats.
func localStats(srv *sumdsrv.Server) sumdsrv.StatsResponse {
	var st sumdsrv.StatsResponse
	_, body := localGet(srv, "/v1/stats")
	_ = json.Unmarshal(body, &st) // the server's own encoding of its own type
	return st
}

// ---- load ----

// stepper issues one closed-loop operation.
type stepper interface {
	step(ctx context.Context, rec *Recorder) outcome
}

type outcome struct {
	read     bool
	values   int // values applied by an acknowledged write
	dur      time.Duration
	failed   bool
	mismatch bool
	err      error
}

// newLoadClient is one load connection: a sumdclient on its own
// transport limited to a single connection.
func newLoadClient(url string, rec *Recorder) *sumdclient.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if rec != nil {
		rt = clientTransport{base: rt}
	}
	return sumdclient.New(url, &http.Client{Transport: rt})
}

// svcConn is one service connection: its client, its op sequence and
// its exact model of what the service should answer.
type svcConn struct {
	cl  *sumdclient.Client
	co  *sumdclient.Combiner // durable-reducer's map-side combiner
	gen generator
	m   *model
}

func (c *svcConn) step(ctx context.Context, rec *Recorder) outcome {
	o := c.gen.next()
	b := c.m.b
	if o.kind == opPartial {
		c.co.AddSlice(b.span(o.block, partialBlocks)) // map-side work; only the push is timed
	}
	name := "sumdclient.write"
	if o.kind == opRead {
		name = "sumdclient.read"
	}
	ctx, sp := rec.Start(ctx, name)
	var (
		err   error
		got   float64
		found = true
	)
	t0 := time.Now()
	switch {
	case o.kind == opAdd && o.key == "":
		err = c.cl.AddBatch(ctx, b.block(o.block))
	case o.kind == opAdd:
		err = c.cl.AddKeyed(ctx, o.key, b.block(o.block))
	case o.kind == opSub:
		err = c.cl.SubKeyed(ctx, o.key, b.block(o.block))
	case o.kind == opPartial:
		err = c.co.Flush(ctx)
	case o.key == "":
		got, err = c.cl.Sum(ctx)
	default:
		got, found, err = c.cl.SumKey(ctx, o.key)
	}
	out := outcome{read: o.kind == opRead, dur: time.Since(t0)}
	sp.End()
	if err != nil {
		if !out.read {
			c.m.taint(o.key)
		}
		out.failed, out.err = true, err
		return out
	}
	switch o.kind {
	case opAdd, opSub:
		c.m.add(o.key, o.block, 1, o.kind == opSub)
		out.values = b.size
	case opPartial:
		c.m.add("", o.block, partialBlocks, false)
		out.values = partialBlocks * b.size
	case opRead:
		// The global sum moves under the other connections' writes, so
		// only keyed reads have a single right answer mid-run.
		if o.key != "" {
			if err := c.m.check(o.key, got, found); err != nil {
				out.failed, out.mismatch, out.err = true, true, err
			}
		}
	}
	return out
}

// bulkConn is bulk-sum's single caller, rotating through the arrays.
type bulkConn struct {
	arrays [][]float64
	want   []float64
	i      int
}

func (c *bulkConn) step(ctx context.Context, rec *Recorder) outcome {
	k := c.i % len(c.arrays)
	c.i++
	_, sp := rec.Start(ctx, "parsum.sum")
	t0 := time.Now()
	v := parsum.Sum(c.arrays[k])
	out := outcome{dur: time.Since(t0), values: len(c.arrays[k])}
	sp.End()
	if math.Float64bits(v) != math.Float64bits(c.want[k]) {
		out.failed, out.mismatch = true, true
		out.err = fmt.Errorf("array %d: parsum.Sum bits %016x, exact %016x", k, math.Float64bits(v), math.Float64bits(c.want[k]))
	}
	return out
}

// phase is what one closed-loop stretch measured.
type phase struct {
	writes, reads []float64 // latencies, µs
	values        int64     // values applied by acknowledged writes
	acked         int64     // acknowledged writes
	ops, failed   int64
	mismatches    int64
	wall          time.Duration
	firstErr      error
}

func (p *phase) throughput() float64 { return float64(p.values) / p.wall.Seconds() }

// runPhase drives every connection in a closed loop for d.
func runPhase(conns []stepper, d time.Duration, rec *Recorder) *phase {
	res := make([]phase, len(conns))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(p *phase, c stepper) {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				o := c.step(ctx, rec)
				p.ops++
				us := float64(o.dur) / 1e3
				switch {
				case o.failed:
					p.failed++
					if o.mismatch {
						p.mismatches++
					}
					if p.firstErr == nil {
						p.firstErr = o.err
					}
				case o.read:
					p.reads = append(p.reads, us)
				default:
					p.writes = append(p.writes, us)
					p.values += int64(o.values)
					p.acked++
				}
			}
		}(&res[i], c)
	}
	wg.Wait()
	all := &phase{wall: time.Since(start)}
	for _, p := range res {
		all.writes = append(all.writes, p.writes...)
		all.reads = append(all.reads, p.reads...)
		all.values += p.values
		all.acked += p.acked
		all.ops += p.ops
		all.failed += p.failed
		all.mismatches += p.mismatches
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
	}
	return all
}
