package main

import (
	"math"

	"gpbft/perfbench/internal/wire"
)

// e2e holds the end-to-end figures of one window.
type e2e struct {
	setupS      float64
	latencies   []float64 // ms, committed attempted transactions
	lags        []float64 // ms, actual minus scheduled send
	committed   int       // attempted transactions committed by the drain deadline
	inWindow    int       // attempted transactions committed inside the window
	goodput     float64
	cpuUsPerTx  float64
	blocks      int // blocks the observer committed inside the window
	cpuMsPerBlk float64
	cpuCores    float64
	rssMB       float64
	outageS     float64
	recoveryS   float64
}

// evaluate checks the run and computes its metrics.
func (w *window) evaluate() (*result, error) {
	r := &result{metrics: map[string]float64{}, defs: endToEnd}
	e := w.endToEnd()
	w.check(r, e)
	r.Correct = len(r.violations) == 0
	r.Attempted = len(w.txs)
	r.Failed = r.Attempted - e.committed

	r.note("workload %s seed %d: %d nodes, entry %d, observer %d, window %ds, clock wall, injected delay none (loopback)",
		w.ws.name, w.rc.seed, w.ws.n, w.roles.entry, w.roles.observer, w.rc.seconds)
	r.note("setup_s %.3f (median of %v)", e.setupS, w.setups)
	var ready, probed []float64
	for _, ph := range w.phases {
		ready, probed = append(ready, ph[0]), append(probed, ph[1])
	}
	r.note("setup phases (median): all nodes ready %.3f s, probe committed %.3f s, warm-up committed %.3f s", quantile(ready, 0.5), quantile(probed, 0.5), e.setupS)
	r.note("latency from scheduled send: p50 %.2f ms, p99 %.2f ms over %d samples", quantile(e.latencies, 0.5), quantile(e.latencies, 0.99), len(e.latencies))
	r.note("goodput %.1f tx/s; attempted %d, committed %d, failed %d (failed_share %.5f)", e.goodput, r.Attempted, e.committed, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	r.note("node cpu %.2f cores over the window; %d blocks, cpu_ms_per_block %.2f", e.cpuCores, e.blocks, e.cpuMsPerBlk)
	r.note("cpu_us_per_tx %.1f, rss_mb %.1f, generator lag p99 %.3f ms max %.3f ms", e.cpuUsPerTx, e.rssMB, quantile(e.lags, 0.99), maxOf(e.lags))
	if w.crash != nil {
		r.note("crash: killed node %d; outage_s %.3f, recovery_s %.3f", w.crash.victim, e.outageS, e.recoveryS)
	}

	setMetrics := func(prefix string) {
		r.metrics[prefix+"setup_s"] = e.setupS
		r.metrics[prefix+"goodput_tps"] = e.goodput
		r.metrics[prefix+"cpu_us_per_tx"] = e.cpuUsPerTx
		r.metrics[prefix+"cpu_ms_per_block"] = e.cpuMsPerBlk
		r.metrics[prefix+"rss_mb"] = e.rssMB
	}
	r.metrics["p50_ms"] = quantile(e.latencies, 0.5)
	r.metrics["p99_ms"] = quantile(e.latencies, 0.99)
	r.metrics["gen.lag_p99_ms"] = quantile(e.lags, 0.99)
	r.metrics["gen.lag_max_ms"] = maxOf(e.lags)
	r.metrics["cpu_cores"] = e.cpuCores
	if !w.rc.trace {
		setMetrics("")
		return r, nil
	}
	setMetrics("trace.")
	r.metrics["trace.p50_ms"] = r.metrics["p50_ms"]
	r.metrics["trace.p99_ms"] = r.metrics["p99_ms"]
	r.metrics["trace.latency_samples"] = float64(len(e.latencies))
	r.metrics["trace.failed_share"] = ratio(float64(r.Failed), float64(r.Attempted))
	r.metrics["trace.outage_s"] = e.outageS
	r.metrics["trace.recovery_s"] = e.recoveryS
	r.defs = perLayer
	if err := w.layers(r, e); err != nil {
		return nil, err
	}
	return r, nil
}

func (w *window) endToEnd() e2e {
	var e e2e
	e.setupS = quantile(w.setups, 0.5)
	e.latencies, e.lags = latencies(w.txs)
	for _, g := range w.txs {
		if c := g.commitNs.Load(); g.commits.Load() > 0 {
			e.committed++
			if c >= w.t0 && c <= w.t1 {
				e.inWindow++
			}
		}
	}
	span := float64(w.t1-w.t0) / 1e9
	e.goodput = float64(e.inWindow) / span

	var cpuUs float64
	for i := range w.c.slots {
		cpuUs += w.cpuUs(i)
	}
	e.cpuUsPerTx = ratio(cpuUs, float64(e.inWindow))
	e.cpuCores = cpuUs / 1e6 / span
	for _, b := range w.observerBlocks() {
		if b.WallNs >= w.t0 && b.WallNs <= w.t1 {
			e.blocks++
		}
	}
	e.cpuMsPerBlk = ratio(cpuUs/1e3, float64(e.blocks))
	// Mean over nodes of each node's peak resident memory: the mean
	// keeps one node's garbage-collection timing from setting the figure.
	for i, cs := range w.end {
		peak := float64(cs.MaxRSSKB)
		if w.crash != nil && w.crash.victim == i {
			peak = math.Max(peak, float64(w.crash.preKill.MaxRSSKB))
		}
		e.rssMB += peak / 1024 / float64(len(w.end))
	}

	if w.crash != nil {
		for _, b := range w.observerBlocks() {
			if b.WallNs > w.crash.killNs && b.Proposer != w.crash.victim {
				e.outageS = float64(b.WallNs-w.crash.killNs) / 1e9
				break
			}
		}
		if rec := w.recoveryNs(); rec > 0 {
			e.recoveryS = float64(rec-w.crash.restartNs) / 1e9
		}
	}
	return e
}

// latencies returns, in ms, each committed transaction's latency from
// its scheduled send and each attempted transaction's generator lag.
func latencies(txs []*genTx) (lat, lags []float64) {
	for _, g := range txs {
		lags = append(lags, float64(g.sentNs-g.schedNs)/1e6)
		if g.commits.Load() > 0 {
			lat = append(lat, float64(g.commitNs.Load()-g.schedNs)/1e6)
		}
	}
	return lat, lags
}

func (w *window) preKill() *wire.Counters {
	if w.crash == nil {
		return nil
	}
	return w.crash.preKill
}

// cpuUs is slot i's user plus system CPU inside the window, summed over
// its incarnations: a killed replica counts up to the kill and its
// restart from process start.
func (w *window) cpuUs(i int) float64 {
	used := func(c *wire.Counters) float64 { return float64(c.UserUs + c.SysUs) }
	if w.start[i] == nil || w.end[i] == nil {
		return 0
	}
	if w.crash != nil && w.crash.victim == i {
		return used(w.crash.preKill) - used(w.start[i]) + used(w.end[i])
	}
	return used(w.end[i]) - used(w.start[i])
}

// check records every correctness violation of the run.
func (w *window) check(r *result, e e2e) {
	if w.exhausted {
		r.violate("the closed loop ran out of pre-signed transactions")
	}
	if w.unknown > 0 {
		r.violate("observer committed %d transactions the generator never sent", w.unknown)
	}
	for _, g := range w.txs {
		if n := g.commits.Load(); n > 1 {
			r.violate("transaction %x committed %d times", g.id[:4], n)
			break
		}
	}
	// Every replica's chain agrees with every other at each height both
	// hold, across all incarnations and the streamed commits.
	hashAt := map[uint64][32]byte{}
	agree := func(who int, h uint64, hash [32]byte) {
		if prev, ok := hashAt[h]; ok && prev != hash {
			r.violate("node %d disagrees at height %d", who, h)
			return
		}
		hashAt[h] = hash
	}
	var observerTxs int
	for i, s := range w.c.slots {
		for k, p := range s.procs {
			p.mu.Lock()
			for _, b := range p.blocks {
				agree(i, b.Height, b.Hash)
				if i == w.roles.observer {
					observerTxs += b.Txs
				}
			}
			for _, sw := range p.switches {
				if !fullCommittee(sw.Committee, w.ws.n) {
					r.violate("node %d entered era %d with committee %v, want all %d nodes", i, sw.Era, sw.Committee, w.ws.n)
				}
			}
			killed := w.crash != nil && w.crash.victim == i && k == 0
			switch {
			case killed:
			case p.err != nil:
				r.violate("node %d exited: %v", i, p.err)
			case p.final == nil:
				r.violate("node %d wrote no final record", i)
			default:
				for j, h := range p.final.Hashes {
					agree(i, p.final.Base+1+uint64(j), h)
				}
				if p.final.Forks > 0 || p.final.CommitErr != "" {
					r.violate("node %d: forks %d, commit error %q", i, p.final.Forks, p.final.CommitErr)
				}
			}
			p.mu.Unlock()
		}
	}
	if w.crash != nil && w.recoveryNs() == 0 {
		r.violate("restarted node %d never caught up with the observer", w.crash.victim)
	}
	// Each replica verifies every committed transaction itself: no
	// process shares another's signature cache.
	for i := range w.c.slots {
		if v := w.sigVerifies(i) / float64(observerTxs); v < 1 {
			r.violate("node %d verified %.2f signatures per committed transaction, want at least 1", i, v)
		}
	}
	if e.committed == 0 {
		r.violate("no attempted transaction committed")
	}
}

// sigVerifies is slot i's lifetime signature-cache misses (each one a
// real verification), summed over its incarnations.
func (w *window) sigVerifies(i int) float64 {
	var total float64
	for k, p := range w.c.slots[i].procs {
		var last *wire.Counters
		if w.crash != nil && w.crash.victim == i && k == 0 {
			last = w.crash.preKill
		} else {
			p.mu.Lock()
			if n := len(p.counters); n > 0 {
				last = &p.counters[n-1]
			}
			p.mu.Unlock()
		}
		if last != nil {
			total += float64(last.SigMisses)
		}
	}
	return total
}

func fullCommittee(com []int, n int) bool {
	if len(com) != n {
		return false
	}
	seen := make(map[int]bool, n)
	for _, i := range com {
		if i < 0 || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}
