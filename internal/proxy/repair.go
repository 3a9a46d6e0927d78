package proxy

// Hinted handoff and anti-entropy repair: the two convergence
// mechanisms behind the write path. Hints are the fast path — a failed
// replica leg of an acked write is redelivered (same token, same
// envelope) when the backend returns. Repair is the backstop that
// needs no memory of what was missed: majority-vote every key's exact
// state across its replicas and push dissenters the exact group
// difference.

import (
	"context"
	"time"

	"parsum"
	"parsum/internal/engine"
	"parsum/internal/keyed"
	"parsum/internal/sumdclient"
)

// enqueueHint queues one failed-but-acked leg for redelivery. At the
// cap the oldest hint drops (counted): repair reconverges whatever the
// queue forgets, so bounded memory wins over perfect redelivery.
func (p *Proxy) enqueueHint(conn *backendConn, token string, blob []byte) {
	dropped := false
	conn.mu.Lock()
	if len(conn.hints) >= p.hintCap {
		conn.hints = conn.hints[1:]
		conn.dropped++
		dropped = true
	}
	conn.hints = append(conn.hints, hint{token: token, blob: blob})
	conn.mu.Unlock()
	p.mu.Lock()
	p.c.hintsQueued++
	if dropped {
		p.c.hintsDropped++
	}
	p.mu.Unlock()
}

// replayConn delivers conn's queued hints in order, stopping at the
// first failure (the backend is still down — keep the rest for the
// next round). Caller holds p.cut (shared or exclusive).
func (p *Proxy) replayConn(ctx context.Context, conn *backendConn) int {
	played := 0
	for {
		conn.mu.Lock()
		if len(conn.hints) == 0 {
			conn.mu.Unlock()
			break
		}
		h := conn.hints[0]
		conn.mu.Unlock()
		// The push rides the hint's original token, so a hint racing a
		// client retry of the same write deduplicates on the backend.
		if _, err := conn.c.PushKeyedIdem(ctx, h.token, h.blob); err != nil {
			break
		}
		conn.mu.Lock()
		// The queue only grows at the tail; head slot 0 is still h.
		conn.hints = conn.hints[1:]
		conn.mu.Unlock()
		played++
	}
	if played > 0 {
		p.mu.Lock()
		p.c.hintsPlayed += int64(played)
		p.mu.Unlock()
	}
	return played
}

// replayLoop retries queued hints in the background. Open breakers are
// skipped — State() flips to half-open when the cooldown lapses, and
// the replay push doubles as the probe.
func (p *Proxy) replayLoop(every time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.cut.RLock()
			for _, name := range p.order {
				conn := p.backends[name]
				if conn.br.State() == sumdclient.BreakerOpen {
					continue
				}
				p.replayConn(context.Background(), conn)
			}
			p.cut.RUnlock()
		case <-p.stop:
			return
		}
	}
}

func (p *Proxy) repairLoop(every time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.RepairNow(context.Background())
		case <-p.stop:
			return
		}
	}
}

// RepairStats summarizes one anti-entropy round.
type RepairStats struct {
	Backends     int      `json:"backends"`
	Unreachable  []string `json:"unreachable,omitempty"` // backends not pulled: down, or still holding hints
	HintsFlushed int      `json:"hints_flushed"`
	Keys         int      `json:"keys"`    // distinct keys examined
	Diffs        int      `json:"diffs"`   // correction partials pushed
	Skipped      int      `json:"skipped"` // keys without a reachable majority
	Errors       int      `json:"errors"`  // failed pulls and pushes
}

// replicaView is one backend's clone of one key (nil acc = the backend
// lacks the key) and the vote it casts.
type replicaView struct {
	name string
	acc  engine.Accumulator
	vote vote
}

// vote is the equality class a replica's state falls into: presence
// plus the engine's wire encoding of the exact group element. That
// encoding is canonical — one byte string per element, whatever history
// built it (pinned by internal/engine's wire corpus) — so two replicas
// agree exactly when their exact states are equal. Rounded bits would
// not do: a write below the key's rounding granularity, or a differing
// NaN or ±Inf multiplicity, leaves them equal.
type vote struct {
	present bool
	enc     string
}

func (p *Proxy) viewOf(name string, acc engine.Accumulator) (replicaView, error) {
	if acc == nil {
		return replicaView{name: name}, nil
	}
	blob, err := engine.MarshalPartial(p.engName, acc)
	if err != nil {
		return replicaView{}, err
	}
	return replicaView{name: name, acc: acc, vote: vote{present: true, enc: string(blob)}}, nil
}

// RepairNow runs one anti-entropy round and returns what it did.
//
// Phase 1, under the exclusive write cut: flush every queued hint
// (tokened, so a hint racing its own earlier in-flight delivery
// dedups), then pull each backend's full keyed state. The cut makes
// the pulls a consistent snapshot — no write lands between two pulls
// and shows up on one replica but not another. A backend whose hints
// did not all flush sits the round out as unreachable: its state lacks
// writes those hints will still deliver under tokens it has never seen,
// so pushing it donor − dissenter now would apply them twice.
//
// Phase 2, outside the cut: per key, majority-vote the replicas'
// exact states; the majority member is the donor, and every dissenter
// is pushed donor − dissenter as an exact wire partial. Writes racing
// phase 2 commute past the pushes (both donor and dissenter receive
// them), so the end state is donor ⊕ new-writes on every replica.
// Keys whose reachable replicas have no majority are skipped and
// counted — another round after the fleet heals finishes the job.
func (p *Proxy) RepairNow(ctx context.Context) RepairStats {
	stats := RepairStats{Backends: len(p.order)}

	p.cut.Lock()
	states := make(map[string]*keyed.Store, len(p.order))
	for _, name := range p.order {
		conn := p.backends[name]
		stats.HintsFlushed += p.replayConn(ctx, conn)
		conn.mu.Lock()
		pending := len(conn.hints)
		conn.mu.Unlock()
		if pending > 0 {
			stats.Unreachable = append(stats.Unreachable, name)
			stats.Errors++
			continue
		}
		blob, err := conn.c.PullKeyed(ctx, "", "")
		if err != nil {
			stats.Unreachable = append(stats.Unreachable, name)
			stats.Errors++
			continue
		}
		st, err := keyed.New(keyed.Options{Engine: p.engName, Partitions: 1})
		if err == nil {
			err = st.ImportMerge(blob)
		}
		if err != nil {
			stats.Unreachable = append(stats.Unreachable, name)
			stats.Errors++
			continue
		}
		states[name] = st
	}
	p.cut.Unlock()

	union := map[string]bool{}
	for _, st := range states {
		for _, k := range st.Keys() {
			union[k] = true
		}
	}

	pushes := map[string][]parsum.KeyPartial{}
	for key := range union {
		stats.Keys++
		var views []replicaView
		for _, name := range p.ring.Replicas(key, p.r) {
			st, ok := states[name]
			if !ok {
				continue // unreachable this round
			}
			acc, _ := st.CloneAcc(key)
			v, err := p.viewOf(name, acc)
			if err != nil {
				stats.Errors++
				continue
			}
			views = append(views, v)
		}
		need := len(views)/2 + 1
		counts := map[vote]int{}
		for _, v := range views {
			counts[v.vote]++
		}
		var winner vote
		found := false
		for v, n := range counts {
			if n >= need && len(views) > 0 {
				winner, found = v, true
				break
			}
		}
		if !found {
			stats.Skipped++
			continue
		}
		// The donor is any majority member; donor − dissenter is the
		// exact correction that lands the dissenter on the donor's group
		// element. An absent-majority winner makes the "donor" the empty
		// element: dissenters are pushed their own negation.
		var donor engine.Accumulator
		for _, v := range views {
			if v.vote == winner && v.acc != nil {
				donor = v.acc
				break
			}
		}
		for _, v := range views {
			if v.vote == winner {
				continue
			}
			diff := p.eng.NewAccumulator()
			if donor != nil {
				diff.Merge(donor.Clone())
			}
			if v.acc != nil {
				diff.(engine.Inverter).SubAccumulator(v.acc.Clone())
			}
			blob, err := engine.MarshalPartial(p.engName, diff)
			if err != nil {
				stats.Errors++
				continue
			}
			pushes[v.name] = append(pushes[v.name], parsum.KeyPartial{Key: key, Blob: blob})
		}
	}

	for name, ps := range pushes {
		if _, err := p.backends[name].c.PushKeyedPartials(ctx, ps); err != nil {
			stats.Errors++
			continue
		}
		stats.Diffs += len(ps)
	}

	p.mu.Lock()
	p.c.repairRounds++
	p.c.repairKeys += int64(stats.Keys)
	p.c.repairDiffs += int64(stats.Diffs)
	p.c.repairSkips += int64(stats.Skipped)
	p.c.repairErrors += int64(stats.Errors)
	p.mu.Unlock()
	return stats
}
