// Model-checked sumd: seeded random operation sequences driven straight
// through Server.ServeHTTP in every configuration, each response compared
// with a pure model. The model holds one exact math/big sum per key (and
// one for the plain sum), built per batch by internal/oracle.SumBig, plus
// the signed NaN/±Inf multiplicities, the live key set and the
// idempotency-token window. It shares no code with the engines, so a
// configuration that drops, doubles, reorders past a reset, or forgets a
// write after a reopen shows up as a read whose bits differ from the
// model's. On failure the sequence is shrunk by dropping one operation at
// a time while it still fails, and the shortest failing sequence is
// printed.
package sumdsrv_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"parsum"
	"parsum/internal/oracle"
	"parsum/internal/sumdsrv"
)

// modelTokenWindow is the server's idempotency window in the model test:
// small, so sequences evict tokens and retries after an eviction re-apply.
const modelTokenWindow = 3

// modelOp is one step of a sequence. Pushes carry their values, not their
// bytes: the blob is rebuilt from the values on every run, so a retried
// push (the same op twice) sends identical bytes under the same
// Idempotency-Key, and shrinking can drop the original without orphaning
// the retry.
type modelOp struct {
	kind string // add, sub, push, kpush, reset, sum, reopen
	key  string // add, sub, sum: "" is the plain sum
	vals []float64
	env  []modelEntry // kpush: distinct keys
	tok  string       // push, kpush
	json bool         // add, sub: JSON body instead of binary
}

type modelEntry struct {
	key  string
	vals []float64
}

func (op modelOp) String() string {
	f := func(xs []float64) string {
		s := make([]string, len(xs))
		for i, x := range xs {
			s[i] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		return "[" + strings.Join(s, " ") + "]"
	}
	switch op.kind {
	case "add", "sub":
		return fmt.Sprintf("%s key=%q json=%t %s", op.kind, op.key, op.json, f(op.vals))
	case "push":
		return fmt.Sprintf("push tok=%q %s", op.tok, f(op.vals))
	case "kpush":
		var b strings.Builder
		fmt.Fprintf(&b, "kpush tok=%q", op.tok)
		for _, e := range op.env {
			fmt.Fprintf(&b, " %q:%s", e.key, f(e.vals))
		}
		return b.String()
	case "sum":
		return fmt.Sprintf("sum key=%q", op.key)
	}
	return op.kind
}

// modelSum is one exact sum: the finite part exactly in a big.Float, and
// the non-finite summands as signed multiplicities, so deletion is
// modelled as the group inverse it is in the engines.
type modelSum struct {
	fin           *big.Float
	nan, pos, neg int64
}

func newModelSum() *modelSum { return &modelSum{fin: new(big.Float).SetPrec(4096)} }

func (m *modelSum) apply(xs []float64, sign int64) {
	var fin []float64
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			m.nan += sign
		case math.IsInf(x, 1):
			m.pos += sign
		case math.IsInf(x, -1):
			m.neg += sign
		default:
			fin = append(fin, x)
		}
	}
	if sign > 0 {
		m.fin.Add(m.fin, oracle.SumBig(fin))
	} else {
		m.fin.Sub(m.fin, oracle.SumBig(fin))
	}
}

// round resolves the state with IEEE semantics: any NaN, or both
// infinities, is NaN; one infinity dominates; an exact zero is +0.
func (m *modelSum) round() float64 {
	switch {
	case m.nan > 0 || m.pos > 0 && m.neg > 0:
		return math.NaN()
	case m.pos > 0:
		return math.Inf(1)
	case m.neg > 0:
		return math.Inf(-1)
	case m.fin.Sign() == 0:
		return 0
	}
	f, _ := m.fin.Float64()
	return f
}

// model is the whole expected service state.
type model struct {
	global *modelSum
	keys   map[string]*modelSum
	toks   []string // idempotency window, oldest first
}

func (m *model) key(k string) *modelSum {
	s, ok := m.keys[k]
	if !ok {
		s = newModelSum()
		m.keys[k] = s
	}
	return s
}

// reserve mirrors the server's token window: false for a duplicate,
// otherwise the token is admitted and the oldest evicted past capacity.
func (m *model) reserve(tok string) bool {
	for _, t := range m.toks {
		if t == tok {
			return false
		}
	}
	m.toks = append(m.toks, tok)
	if len(m.toks) > modelTokenWindow {
		m.toks = m.toks[1:]
	}
	return true
}

type modelConfig struct {
	name string
	opt  sumdsrv.Options // WALDir is filled per run
	wal  bool
}

func modelConfigs() []modelConfig {
	var cfgs []modelConfig
	for _, async := range []bool{false, true} {
		mode := "sync"
		if async {
			mode = "async"
		}
		for _, w := range []struct {
			name  string
			fsync string
			snap  int
		}{{"nowal", "", 0}, {"always", "always", 0}, {"interval", "interval", 5}} {
			for _, eng := range []string{"dense", "sparse", "small"} {
				cfgs = append(cfgs, modelConfig{
					name: mode + "/" + w.name + "/" + eng,
					opt: sumdsrv.Options{
						Engine: eng, Shards: 2, KeyPartitions: 2, Async: async,
						WALFsync: w.fsync, WALSnapshotEvery: w.snap,
						DedupWindow: modelTokenWindow,
					},
					wal: w.fsync != "",
				})
			}
		}
	}
	return cfgs
}

var modelKeys = []string{"a", "b", "c", "k/long-ish key", "z"}

// genModelVals draws one batch: mixed narrow and wide exponents, signed
// zeros, subnormals, and (when special) occasional NaN and ±Inf.
func genModelVals(r *rand.Rand, special bool) []float64 {
	n := r.Intn(12)
	if r.Intn(8) == 0 {
		n = 0
	}
	lo, hi := -8, 8
	if r.Intn(2) == 0 {
		lo, hi = -1074, 900
	}
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(16) {
		case 0:
			xs[i] = math.Copysign(0, float64(r.Intn(2)*2-1))
		case 1:
			xs[i] = math.Float64frombits(uint64(r.Int63n(1 << 52)))
		default:
			e := lo + r.Intn(hi-lo+1)
			xs[i] = math.Ldexp(1+r.Float64(), e)
		}
		if r.Intn(2) == 0 {
			xs[i] = -xs[i]
		}
	}
	if special && n > 0 && r.Intn(6) == 0 {
		xs[r.Intn(n)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
	}
	return xs
}

func genModelOps(r *rand.Rand, n int, wal bool) []modelOp {
	var ops []modelOp
	var pushes []modelOp
	added := map[string][][]float64{}
	pickKey := func() string {
		if r.Intn(3) == 0 {
			return ""
		}
		return modelKeys[r.Intn(len(modelKeys))]
	}
	for len(ops) < n {
		var op modelOp
		switch p := r.Intn(100); {
		case p < 22:
			op = modelOp{kind: "add", key: pickKey(), json: r.Intn(3) == 0}
			op.vals = genModelVals(r, !op.json)
			added[op.key] = append(added[op.key], op.vals)
		case p < 36:
			op = modelOp{kind: "sub", key: pickKey(), json: r.Intn(3) == 0}
			// Half the deletions retract an earlier batch of the same key
			// exactly, so sums cancel to zero and specials to absent.
			if prev := added[op.key]; len(prev) > 0 && r.Intn(2) == 0 {
				op.vals = prev[r.Intn(len(prev))]
				op.json = op.json && allFinite(op.vals)
			} else {
				op.vals = genModelVals(r, !op.json)
			}
		case p < 46:
			op = modelOp{kind: "push", tok: fmt.Sprintf("t%d", len(ops)), vals: genModelVals(r, true)}
			pushes = append(pushes, op)
		case p < 55:
			op = modelOp{kind: "kpush", tok: fmt.Sprintf("t%d", len(ops))}
			for _, k := range r.Perm(len(modelKeys))[:1+r.Intn(3)] {
				op.env = append(op.env, modelEntry{key: modelKeys[k], vals: genModelVals(r, true)})
			}
			pushes = append(pushes, op)
		case p < 62:
			if len(pushes) == 0 {
				continue
			}
			op = pushes[r.Intn(len(pushes))] // a retry: same token, same bytes
		case p < 65:
			op = modelOp{kind: "reset"}
		case p < 70:
			if !wal {
				continue
			}
			op = modelOp{kind: "reopen"}
		default:
			op = modelOp{kind: "sum", key: pickKey()}
		}
		ops = append(ops, op)
	}
	return ops
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// modelRun is one sequence against one fresh server.
type modelRun struct {
	cfg modelConfig
	opt sumdsrv.Options
	srv *sumdsrv.Server
	m   model
}

func (mr *modelRun) do(method, target, ctype, tok string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if tok != "" {
		req.Header.Set("Idempotency-Key", tok)
	}
	rec := httptest.NewRecorder()
	mr.srv.ServeHTTP(rec, req)
	return rec.Code, bytes.TrimSpace(rec.Body.Bytes())
}

func (mr *modelRun) partial(xs []float64) ([]byte, error) {
	acc, err := parsum.NewAccumulatorEngine(mr.opt.Engine)
	if err != nil {
		return nil, err
	}
	acc.AddSlice(xs)
	return acc.MarshalBinary()
}

func (mr *modelRun) envelope(env []modelEntry) ([]byte, error) {
	ks, err := parsum.NewKeyed(parsum.KeyedOptions{Engine: mr.opt.Engine, Partitions: 1})
	if err != nil {
		return nil, err
	}
	for _, e := range env {
		ks.Add(e.key, e.vals)
	}
	return ks.ExportAll()
}

// checkSum reads one sum and compares it with the model: a 404 exactly
// when the model has no such key, otherwise identical bits.
func (mr *modelRun) checkSum(key string) error {
	target := "/v1/sum"
	if key != "" {
		target += "?key=" + url.QueryEscape(key)
	}
	code, body := mr.do(http.MethodGet, target, "", "", nil)
	want := mr.m.global
	if key != "" {
		var ok bool
		if want, ok = mr.m.keys[key]; !ok {
			if code != http.StatusNotFound {
				return fmt.Errorf("sum key=%q: status %d (%s), model has no such key", key, code, body)
			}
			return nil
		}
	}
	if code != http.StatusOK {
		return fmt.Errorf("sum key=%q: status %d (%s)", key, code, body)
	}
	var resp sumdsrv.SumResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("sum key=%q: %v in %s", key, err, body)
	}
	wantV := want.round()
	if wantBits := strconv.FormatUint(math.Float64bits(wantV), 16); resp.Bits != wantBits {
		return fmt.Errorf("sum key=%q: bits %s (%s), model %s (%g)", key, resp.Bits, resp.Sum, wantBits, wantV)
	}
	return nil
}

// checkMerged compares a push response with the model's dedup verdict.
func checkMerged(what string, code int, body []byte, fresh bool, merged int) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d (%s)", what, code, body)
	}
	var resp struct {
		Merged    int  `json:"merged"`
		Duplicate bool `json:"duplicate"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %v in %s", what, err, body)
	}
	if fresh && (resp.Duplicate || resp.Merged != merged) || !fresh && (!resp.Duplicate || resp.Merged != 0) {
		return fmt.Errorf("%s: response %s, model expects fresh=%t merged=%d", what, body, fresh, merged)
	}
	return nil
}

func (mr *modelRun) step(op modelOp) error {
	switch op.kind {
	case "add", "sub":
		target, ctype := "/v1/"+op.kind, "application/octet-stream"
		var body []byte
		if op.json {
			ctype = "application/json"
			body, _ = json.Marshal(sumdsrv.AddRequest{Values: op.vals, Key: op.key})
		} else {
			if op.key != "" {
				target += "?key=" + url.QueryEscape(op.key)
			}
			for _, x := range op.vals {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(x))
			}
		}
		code, resp := mr.do(http.MethodPost, target, ctype, "", body)
		if code != http.StatusOK {
			return fmt.Errorf("%s: status %d (%s)", op, code, resp)
		}
		sign := int64(1)
		if op.kind == "sub" {
			sign = -1
		}
		if op.key == "" {
			mr.m.global.apply(op.vals, sign)
		} else {
			mr.m.key(op.key).apply(op.vals, sign)
		}
	case "push":
		blob, err := mr.partial(op.vals)
		if err != nil {
			return err
		}
		code, resp := mr.do(http.MethodPost, "/v1/partial", "application/octet-stream", op.tok, blob)
		fresh := mr.m.reserve(op.tok)
		if err := checkMerged(op.String(), code, resp, fresh, 1); err != nil {
			return err
		}
		if fresh {
			mr.m.global.apply(op.vals, 1)
		}
	case "kpush":
		blob, err := mr.envelope(op.env)
		if err != nil {
			return err
		}
		code, resp := mr.do(http.MethodPost, "/v1/keyed/partial", "application/octet-stream", op.tok, blob)
		fresh := mr.m.reserve(op.tok)
		if err := checkMerged(op.String(), code, resp, fresh, len(op.env)); err != nil {
			return err
		}
		if fresh {
			for _, e := range op.env {
				mr.m.key(e.key).apply(e.vals, 1)
			}
		}
	case "reset":
		if code, resp := mr.do(http.MethodPost, "/v1/reset", "", "", nil); code != http.StatusOK {
			return fmt.Errorf("reset: status %d (%s)", code, resp)
		}
		mr.m.global = newModelSum()
		mr.m.keys = map[string]*modelSum{}
	case "sum":
		return mr.checkSum(op.key)
	case "reopen":
		mr.srv.Close()
		srv, err := sumdsrv.New(mr.opt)
		if err != nil {
			mr.srv = nil
			return fmt.Errorf("reopen: %v", err)
		}
		mr.srv = srv
	default:
		return fmt.Errorf("unknown op %q", op.kind)
	}
	return nil
}

// finalCheck reads every sum the model knows of, a key the sequences
// never write, and the live key list.
func (mr *modelRun) finalCheck() error {
	if err := mr.checkSum(""); err != nil {
		return err
	}
	for _, k := range append(append([]string(nil), modelKeys...), "never-written") {
		if err := mr.checkSum(k); err != nil {
			return err
		}
	}
	code, body := mr.do(http.MethodGet, "/v1/keys", "", "", nil)
	var resp sumdsrv.KeysResponse
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
		return fmt.Errorf("keys: status %d (%s)", code, body)
	}
	want := []string{}
	for k := range mr.m.keys {
		want = append(want, k)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(resp.Keys, want) {
		return fmt.Errorf("keys: server %q, model %q", resp.Keys, want)
	}
	return nil
}

// runModel replays ops against a fresh server (and a fresh WAL directory)
// and returns the first divergence from the model, or nil.
func runModel(cfg modelConfig, ops []modelOp) (err error) {
	mr := &modelRun{cfg: cfg, opt: cfg.opt, m: model{global: newModelSum(), keys: map[string]*modelSum{}}}
	if cfg.wal {
		dir, err := os.MkdirTemp("", "sumd-model-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		mr.opt.WALDir = dir
	}
	if mr.srv, err = sumdsrv.New(mr.opt); err != nil {
		return err
	}
	defer func() {
		if mr.srv != nil {
			mr.srv.Close()
		}
	}()
	for i, op := range ops {
		if err := mr.step(op); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return mr.finalCheck()
}

// shrinkModel drops one operation at a time while the sequence still
// fails, until no single removal keeps it failing.
func shrinkModel(cfg modelConfig, ops []modelOp) ([]modelOp, error) {
	err := runModel(cfg, ops)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(ops); {
			cand := append(append([]modelOp(nil), ops[:i]...), ops[i+1:]...)
			if cerr := runModel(cfg, cand); cerr != nil {
				ops, err, changed = cand, cerr, true
				continue
			}
			i++
		}
	}
	return ops, err
}

// TestModelCheckedService runs seeded random sequences of every mutation
// and read the service offers through {sync, async} × {no WAL, fsync
// always, fsync interval with snapshots every 5 mutations} × the four
// wire-capable engines, and demands that every read, every 404 and every
// idempotency verdict match the model.
func TestModelCheckedService(t *testing.T) {
	const seeds, opsPerSeq = 8, 60
	for ci, cfg := range modelConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < seeds; s++ {
				seed := int64(1000*ci + s)
				ops := genModelOps(rand.New(rand.NewSource(seed)), opsPerSeq, cfg.wal)
				if err := runModel(cfg, ops); err != nil {
					short, serr := shrinkModel(cfg, ops)
					var b strings.Builder
					for i, op := range short {
						fmt.Fprintf(&b, "\n  %2d %s", i, op)
					}
					t.Fatalf("seed %d: %v\nshortest failing sequence (%d of %d ops), failing with %v:%s",
						seed, err, len(short), len(ops), serr, b.String())
				}
			}
		})
	}
}
