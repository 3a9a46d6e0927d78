package proxy_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsum"
	"parsum/internal/chaos"
	"parsum/internal/proxy"
	"parsum/internal/sumdclient"
	"parsum/internal/sumdsrv"
)

// fleet is a test cluster: n sumd backends, each reachable directly
// (for oracle checks) and through a per-backend chaos injector (the
// proxy's view of it).
type fleet struct {
	names     []string
	direct    map[string]*sumdclient.Client
	injectors map[string]*chaos.Injector
}

func startFleet(t *testing.T, n int, opt sumdsrv.Options) *fleet {
	t.Helper()
	f := &fleet{
		direct:    map[string]*sumdclient.Client{},
		injectors: map[string]*chaos.Injector{},
	}
	for i := 0; i < n; i++ {
		srv, err := sumdsrv.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		f.names = append(f.names, hs.URL)
		f.direct[hs.URL] = sumdclient.New(hs.URL, hs.Client())
		// A quiet injector: no faults until a test partitions or arms it.
		f.injectors[hs.URL] = chaos.New(chaos.Options{Seed: uint64(i) + 1})
	}
	return f
}

// transport is the proxy Options.Transport seam routing each backend
// through its injector.
func (f *fleet) transport(backend string) http.RoundTripper { return f.injectors[backend] }

func newProxy(t *testing.T, f *fleet, mutate func(*proxy.Options)) (*proxy.Proxy, *httptest.Server) {
	t.Helper()
	opt := proxy.Options{
		Backends:    f.names,
		Timeout:     5 * time.Second,
		ReplayEvery: -1, // tests drive replay and repair explicitly
		Transport:   f.transport,
	}
	if mutate != nil {
		mutate(&opt)
	}
	p, err := proxy.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	hs := httptest.NewServer(p)
	t.Cleanup(hs.Close)
	return p, hs
}

// postAdd writes xs to key through the proxy and returns the response.
func postAdd(t *testing.T, base, key string, xs []float64, token string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(struct {
		Values []float64 `json:"values"`
	}{xs})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/add?key="+key, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Idempotency-Key", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drain(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestWriteReplicatesToAllReplicas(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	xs := []float64{1e16, 3.25, -1e16, 0.125}
	want := math.Float64bits(parsum.Sum(xs))

	resp := postAdd(t, hs.URL, "alpha", xs, "")
	body := drain(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"acked":true`) || !strings.Contains(body, `"ok":3`) {
		t.Fatalf("ack response: %s", body)
	}

	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "alpha")
		if err != nil || !ok {
			t.Fatalf("%s: SumKey ok=%t err=%v", name, ok, err)
		}
		if got := math.Float64bits(v); got != want {
			t.Errorf("%s: bits %016x, want %016x", name, got, want)
		}
	}

	// The proxy's read agrees bit for bit.
	rr, err := http.Get(hs.URL + "/v1/sum?key=alpha")
	if err != nil {
		t.Fatal(err)
	}
	rb := drain(t, rr)
	if !strings.Contains(rb, fmt.Sprintf(`"bits":"%016x"`, want)) {
		t.Fatalf("proxy read: %s", rb)
	}
}

func TestWriteValidation(t *testing.T) {
	f := startFleet(t, 1, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	resp, err := http.Post(hs.URL+"/v1/add", "application/json", strings.NewReader(`{"values":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing key: %d, want 400", resp.StatusCode)
	}

	long := strings.Repeat("k", 5000)
	resp = postAdd(t, hs.URL, long, []float64{1}, "")
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized key: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(hs.URL+"/v1/add?key=k", "application/json", strings.NewReader(`{"values":`))
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(hs.URL+"/v1/add?key=k", "application/octet-stream", strings.NewReader("12345"))
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged octet body: %d, want 400", resp.StatusCode)
	}
}

// TestWriteJSONWithCharset: a Content-Type parameter does not change the
// media type. The proxy once routed on the exact header string, so
// {"values":[1,2]} sent as "application/json; charset=utf-8" decoded as
// two raw float64s and every replica stored 7.458627505809701e+295.
func TestWriteJSONWithCharset(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)
	resp, err := http.Post(hs.URL+"/v1/add?key=k", "application/json; charset=utf-8", strings.NewReader(`{"values":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "k")
		if err != nil || !ok || v != 3 {
			t.Errorf("%s: sum %g ok=%t err=%v, want 3", name, v, ok, err)
		}
	}
}

func TestReadFailover(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	p, hs := newProxy(t, f, nil)

	resp := postAdd(t, hs.URL, "k", []float64{2.5}, "")
	if drain(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d", resp.StatusCode)
	}

	replicas := p.Ring().Replicas("k", p.Replication())
	f.injectors[replicas[0]].Partition()

	rr, err := http.Get(hs.URL + "/v1/sum?key=k")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, rr)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("failover read: %d %s", rr.StatusCode, body)
	}
	if strings.Contains(body, fmt.Sprintf("%q", replicas[0])) {
		t.Fatalf("read served by the partitioned primary: %s", body)
	}

	// Unknown key on a live fleet is a 404, not a 503.
	rr, err = http.Get(hs.URL + "/v1/sum?key=nope")
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, rr); rr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: %d, want 404", rr.StatusCode)
	}

	// All replicas dark: 503.
	for _, name := range replicas {
		f.injectors[name].Partition()
	}
	rr, err = http.Get(hs.URL + "/v1/sum?key=k")
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, rr); rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("dark fleet read: %d, want 503", rr.StatusCode)
	}
}

func TestAckModes(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		partitions int
		wantAck    bool
	}{
		{proxy.AckQuorum, 1, true},
		{proxy.AckQuorum, 2, false},
		{proxy.AckAll, 1, false},
		{proxy.AckOne, 2, true},
	} {
		t.Run(fmt.Sprintf("%s_%ddown", tc.mode, tc.partitions), func(t *testing.T) {
			f := startFleet(t, 3, sumdsrv.Options{})
			_, hs := newProxy(t, f, func(o *proxy.Options) { o.AckMode = tc.mode })
			for i := 0; i < tc.partitions; i++ {
				f.injectors[f.names[i]].Partition()
			}
			resp := postAdd(t, hs.URL, "k", []float64{1}, "")
			body := drain(t, resp)
			if tc.wantAck && resp.StatusCode != http.StatusOK {
				t.Fatalf("want ack, got %d %s", resp.StatusCode, body)
			}
			if !tc.wantAck && resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("want 503, got %d %s", resp.StatusCode, body)
			}
		})
	}
}

func TestHintedHandoffReplaysAfterHeal(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	// Background replay on a tight loop; repair stays manual.
	p, hs := newProxy(t, f, func(o *proxy.Options) { o.ReplayEvery = 5 * time.Millisecond })

	down := f.names[2]
	f.injectors[down].Partition()

	xs := []float64{0.1, 0.2, 0.7}
	want := math.Float64bits(parsum.Sum(xs))
	resp := postAdd(t, hs.URL, "h", xs, "")
	body := drain(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hinted":1`) {
		t.Fatalf("add: %d %s (want acked with one hint)", resp.StatusCode, body)
	}
	if _, ok, _ := f.direct[down].SumKey(context.Background(), "h"); ok {
		t.Fatal("partitioned backend saw the write")
	}

	f.injectors[down].Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, err := f.direct[down].SumKey(context.Background(), "h")
		if err == nil && ok {
			if got := math.Float64bits(v); got != want {
				t.Fatalf("replayed bits %016x, want %016x", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hint never replayed after heal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = p
}

func TestRepairRestoresWipedReplica(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	p, hs := newProxy(t, f, nil)

	keys := []string{"a", "b", "c", "d", "e"}
	oracle := map[string]uint64{}
	for i, k := range keys {
		xs := []float64{float64(i) + 0.5, 1e-30, -0.25}
		oracle[k] = math.Float64bits(parsum.Sum(xs))
		resp := postAdd(t, hs.URL, k, xs, "")
		if drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("add %s: %d", k, resp.StatusCode)
		}
	}

	// Wipe one backend outright — kill -9 plus lost disk, in effect.
	wiped := f.names[1]
	if err := f.direct[wiped].Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ks, _ := f.direct[wiped].Keys(context.Background(), "", ""); len(ks) != 0 {
		t.Fatalf("reset left keys: %v", ks)
	}

	stats := p.RepairNow(context.Background())
	if stats.Errors > 0 || len(stats.Unreachable) > 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if stats.Diffs == 0 {
		t.Fatalf("repair pushed no diffs: %+v", stats)
	}

	for _, name := range f.names {
		for _, k := range keys {
			v, ok, err := f.direct[name].SumKey(context.Background(), k)
			if err != nil || !ok {
				t.Fatalf("%s %s: ok=%t err=%v", name, k, ok, err)
			}
			if got := math.Float64bits(v); got != oracle[k] {
				t.Errorf("%s %s: bits %016x, want %016x", name, k, got, oracle[k])
			}
		}
	}

	// A second round finds nothing to fix.
	stats = p.RepairNow(context.Background())
	if stats.Diffs != 0 || stats.Skipped != 0 {
		t.Fatalf("second round not a no-op: %+v", stats)
	}
}

// TestRepairVotesOnExactState: 2⁻⁸⁰ on top of 1.0 is below the key's
// rounding granularity, so all three replicas of k read the same bits
// while one of them holds a different exact state. Repair must see that
// difference and converge the dissenter; otherwise it surfaces once the
// large part cancels, and that replica alone reads 8.27e−25.
func TestRepairVotesOnExactState(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	p, hs := newProxy(t, f, nil)
	ctx := context.Background()
	if resp := postAdd(t, hs.URL, "k", []float64{1}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, drain(t, resp))
	} else {
		drain(t, resp)
	}
	if err := f.direct[f.names[0]].AddKeyed(ctx, "k", []float64{math.Ldexp(1, -80)}); err != nil {
		t.Fatal(err)
	}

	stats := p.RepairNow(ctx)
	if stats.Errors > 0 || stats.Skipped > 0 || stats.Diffs != 1 {
		t.Fatalf("repair stats %+v, want exactly one diff for the dissenting replica", stats)
	}

	if resp := postAdd(t, hs.URL, "k", []float64{-1}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("retract: %d %s", resp.StatusCode, drain(t, resp))
	} else {
		drain(t, resp)
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(ctx, "k")
		if err != nil || !ok {
			t.Fatalf("%s: ok=%t err=%v", name, ok, err)
		}
		if math.Float64bits(v) != 0 {
			t.Errorf("%s reads %g after the retraction, want +0", name, v)
		}
	}
	if stats := p.RepairNow(ctx); stats.Diffs != 0 || stats.Skipped != 0 {
		t.Fatalf("second round not a no-op: %+v", stats)
	}
}

// failPosts is a backend transport that fails the next n POSTs before
// sending them and passes every other request through.
type failPosts struct {
	next http.RoundTripper
	n    atomic.Int32
}

func (f *failPosts) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && f.n.Add(-1) >= 0 {
		return nil, errors.New("failPosts: injected failure")
	}
	return f.next.RoundTrip(r)
}

// TestRepairSkipsBackendWithPendingHints: a backend whose hint replay
// fails but whose state pull succeeds must sit out the repair round. Its
// pulled state lacks the hinted write, so repairing it would push it that
// write inside donor − dissenter, and the hint — delivered later under a
// token the backend never saw — would apply it a second time.
func TestRepairSkipsBackendWithPendingHints(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	down := f.names[2]
	fp := &failPosts{next: f.injectors[down]}
	p, hs := newProxy(t, f, func(o *proxy.Options) {
		o.Transport = func(name string) http.RoundTripper {
			if name == down {
				return fp
			}
			return f.injectors[name]
		}
	})
	ctx := context.Background()

	// Two failures: the write's leg to down (queueing a hint), then that
	// hint's replay in the first repair round. Later POSTs get through.
	fp.n.Store(2)
	xs := []float64{1e16, 0.5, -1e16}
	want := math.Float64bits(parsum.Sum(xs))
	resp := postAdd(t, hs.URL, "k", xs, "write-1")
	if body := drain(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"hinted":1`) {
		t.Fatalf("add: %d %s (want acked with one hint)", resp.StatusCode, body)
	}

	stats := p.RepairNow(ctx)
	if !slices.Equal(stats.Unreachable, []string{down}) || stats.Diffs != 0 {
		t.Fatalf("round with an undelivered hint: %+v (want only %s unreachable, no diffs)", stats, down)
	}
	if _, ok, _ := f.direct[down].SumKey(ctx, "k"); ok {
		t.Fatal("repair pushed the hinted write to a backend that still holds its hint")
	}

	// The next round delivers the hint and finds nothing left to fix.
	stats = p.RepairNow(ctx)
	if len(stats.Unreachable) != 0 || stats.Errors != 0 || stats.HintsFlushed != 1 || stats.Diffs != 0 {
		t.Fatalf("second round: %+v (want the hint flushed and no diffs)", stats)
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(ctx, "k")
		if err != nil || !ok || math.Float64bits(v) != want {
			t.Errorf("%s: sum %v ok=%t err=%v, want bits %016x", name, v, ok, err, want)
		}
	}
}

func TestTopologyEndpoint(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	rr, err := http.Get(hs.URL + "/v1/topology?key=zeta")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Nodes       []string          `json:"nodes"`
		Replication int               `json:"replication"`
		AckMode     string            `json:"ack_mode"`
		NeedAcks    int               `json:"need_acks"`
		Breakers    map[string]string `json:"breakers"`
		Replicas    []string          `json:"replicas"`
	}
	if err := json.Unmarshal([]byte(drain(t, rr)), &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 3 || topo.Replication != 3 || topo.AckMode != "quorum" || topo.NeedAcks != 2 {
		t.Fatalf("topology: %+v", topo)
	}
	if len(topo.Replicas) != 3 {
		t.Fatalf("key replicas: %v", topo.Replicas)
	}
	for name, st := range topo.Breakers {
		if st != "closed" {
			t.Errorf("breaker %s = %s, want closed", name, st)
		}
	}
}

func TestMetricsAndHealth(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	resp := postAdd(t, hs.URL, "m", []float64{1, 2}, "")
	drain(t, resp)
	rr, err := http.Get(hs.URL + "/v1/sum?key=m")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rr)

	rr, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, rr)
	for _, want := range []string{
		"sumproxy_up 1",
		"sumproxy_backends 3",
		"sumproxy_writes_total 1",
		"sumproxy_writes_acked_total 1",
		`sumproxy_write_legs_total{outcome="ok"} 3`,
		"sumproxy_reads_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	rr, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body = drain(t, rr); rr.StatusCode != http.StatusOK || !strings.Contains(body, `"live":3`) {
		t.Errorf("healthz: %d %s", rr.StatusCode, body)
	}
	rr, err = http.Get(hs.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, rr); rr.StatusCode != http.StatusOK {
		t.Errorf("readyz: %d", rr.StatusCode)
	}
}

func TestReadyzDegradesWhenFleetDies(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, func(o *proxy.Options) {
		o.BreakerThreshold = 1
		o.BreakerCooldown = time.Minute
	})
	for _, name := range f.names {
		f.injectors[name].Partition()
	}
	// One failed write opens every breaker (threshold 1).
	resp := postAdd(t, hs.URL, "k", []float64{1}, "")
	if drain(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dark write: %d, want 503", resp.StatusCode)
	}
	rr, err := http.Get(hs.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, rr); rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d %s", rr.StatusCode, body)
	}
	rr, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, rr); !strings.Contains(body, `"live":0`) {
		t.Fatalf("healthz live count: %s", body)
	}
}

func TestIdempotentProxyRetry(t *testing.T) {
	f := startFleet(t, 3, sumdsrv.Options{})
	_, hs := newProxy(t, f, nil)

	xs := []float64{4.25}
	want := math.Float64bits(parsum.Sum(xs))
	token := sumdclient.NewIdemToken()
	// The same logical write delivered three times end to end — one
	// application on every replica.
	for i := 0; i < 3; i++ {
		resp := postAdd(t, hs.URL, "idem", xs, token)
		if drain(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: %d", i, resp.StatusCode)
		}
	}
	for _, name := range f.names {
		v, ok, err := f.direct[name].SumKey(context.Background(), "idem")
		if err != nil || !ok {
			t.Fatalf("%s: ok=%t err=%v", name, ok, err)
		}
		if got := math.Float64bits(v); got != want {
			t.Errorf("%s: bits %016x, want %016x (write applied more than once?)", name, got, want)
		}
	}
}

func TestProxyNewValidation(t *testing.T) {
	if _, err := proxy.New(proxy.Options{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := proxy.New(proxy.Options{Backends: []string{"http://x"}, AckMode: "most"}); err == nil {
		t.Error("unknown ack mode accepted")
	}
	if _, err := proxy.New(proxy.Options{Backends: []string{"http://x"}, Engine: "no-such"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := proxy.New(proxy.Options{Backends: []string{"http://x"}, Engine: "kahan"}); err == nil {
		t.Error("non-invertible engine accepted")
	}
}
