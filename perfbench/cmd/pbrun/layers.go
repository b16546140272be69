package main

import (
	"fmt"
	"math"

	"gpbft/perfbench/internal/wire"
)

// replayKinds are the envelope kinds every workload exchanges; the
// codec and envelope-open replays run once per kind.
var replayKinds = []string{"request", "pre-prepare", "prepare", "commit"}

// perLayer is what a traced run reports. Span metrics come from the
// node wrappers, counter metrics from each node's public counters,
// replay metrics from microbenchmarks over inputs the run captured,
// and trace.* are the traced run's own end-to-end figures, so that the
// tracing overhead shows against the untraced run of the same workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "types.sig_verifies_per_tx", unit: "count", better: "lower"},
		{name: "types.sigcache_hit_share", unit: "share", better: "higher"},
		{name: "core.envelopes_per_tx", unit: "count", better: "lower"},
		{name: "core.on_envelope_us.p50", unit: "us", better: "lower"},
		{name: "core.on_envelope_us.p99", unit: "us", better: "lower"},
		{name: "core.on_envelope_self_us.p99", unit: "us", better: "lower"},
		{name: "core.on_request_us", unit: "us", better: "lower"},
		{name: "core.on_timer_us", unit: "us", better: "lower"},
		{name: "core.loop_busy_share", unit: "share", better: "lower"},
		{name: "pbft.view_changes", unit: "count", better: "lower"},
		{name: "transport.send_us", unit: "us", better: "lower"},
		{name: "transport.frames_out_per_tx", unit: "count", better: "lower"},
		{name: "transport.bytes_out_per_tx", unit: "bytes", better: "lower"},
		{name: "transport.frames_per_write", unit: "count", better: "higher"},
		{name: "transport.dropped", unit: "count", better: "lower"},
		{name: "transport.redials", unit: "count", better: "lower"},
		{name: "runtime.txs_per_block", unit: "count", better: "higher"},
		{name: "runtime.pool_depth_max", unit: "count", better: "lower"},
		{name: "runtime.pool_rejected", unit: "count", better: "lower"},
		{name: "store.wal_append_us.p50", unit: "us", better: "lower"},
		{name: "store.wal_append_us.p99", unit: "us", better: "lower"},
		{name: "store.wal_appends_per_tx", unit: "count", better: "lower"},
		{name: "store.wal_bytes_per_tx", unit: "bytes", better: "lower"},
		{name: "store.blocklog_append_us", unit: "us", better: "lower"},
		{name: "store.recovery_ms", unit: "ms", better: "lower"},
		{name: "go.gc_cpu_share", unit: "share", better: "lower"},
		{name: "go.alloc_bytes_per_tx", unit: "bytes", better: "lower"},
		{name: "gen.lag_p99_ms", unit: "ms", better: "lower"},
		{name: "gen.lag_max_ms", unit: "ms", better: "lower"},
	}
	for _, m := range []struct{ name, unit string }{
		{"setup_s", "s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"goodput_tps", "1/s"},
		{"cpu_us_per_tx", "us"}, {"cpu_ms_per_block", "ms"}, {"rss_mb", "MB"}, {"latency_samples", "count"},
		{"failed_share", "share"}, {"outage_s", "s"}, {"recovery_s", "s"},
	} {
		better := "lower"
		if m.name == "goodput_tps" || m.name == "latency_samples" {
			better = "higher"
		}
		defs = append(defs, metricDef{name: "trace." + m.name, unit: m.unit, better: better})
	}
	for _, r := range replays {
		defs = append(defs,
			metricDef{name: r.name, unit: r.unit, better: "lower"},
			metricDef{name: r.allocsName(), unit: "count", better: "lower"})
	}
	return defs
}()

// delta sums a counter over slot i's incarnations inside the window:
// a killed replica counts up to the kill and its restart from zero.
func (w *window) delta(i int, f func(*wire.Counters) float64) float64 {
	if w.start[i] == nil || w.end[i] == nil {
		return 0
	}
	if w.crash != nil && w.crash.victim == i {
		return f(w.crash.preKill) - f(w.start[i]) + f(w.end[i])
	}
	return f(w.end[i]) - f(w.start[i])
}

func (w *window) sum(f func(*wire.Counters) float64) float64 {
	var t float64
	for i := range w.c.slots {
		t += w.delta(i, f)
	}
	return t
}

// spans reads every node's span file.
func (w *window) spans() ([][]wire.Span, error) {
	out := make([][]wire.Span, len(w.c.slots))
	for i := range w.c.slots {
		b, err := readNodeFile(w.c, i, "spans.bin")
		if err != nil {
			return nil, err
		}
		if out[i], err = wire.ReadSpans(b); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return out, nil
}

// layers fills the per-layer metrics of a traced run.
func (w *window) layers(r *result, e e2e) error {
	m := r.metrics
	txs := float64(e.inWindow)

	spans, err := w.spans()
	if err != nil {
		return err
	}
	durs := map[uint8][]float64{}
	var envelopeSelf []float64
	busiest := 0.0
	for _, ss := range spans {
		// Self time of an engine entry: its duration minus the WAL
		// appends it caused, which run inside it.
		inWAL := make(map[int32]int64)
		for _, s := range ss {
			if s.Kind == wire.SpanWALAppend && s.Parent >= 0 {
				inWAL[s.Parent] += s.DurNs
			}
		}
		var busy float64
		for i, s := range ss {
			if s.StartNs < w.t0 || s.StartNs > w.t1 {
				continue
			}
			us := float64(s.DurNs) / 1e3
			durs[s.Kind] = append(durs[s.Kind], us)
			if s.Kind == wire.SpanEnvelope {
				envelopeSelf = append(envelopeSelf, float64(s.DurNs-inWAL[int32(i)])/1e3)
			}
			// Engine entries, sends and block-log appends run one after
			// another on the event loop; WAL appends run inside entries.
			if s.Kind != wire.SpanWALAppend && s.Kind != wire.SpanWALRotate {
				busy += float64(s.DurNs)
			}
		}
		busiest = math.Max(busiest, busy/float64(w.t1-w.t0))
	}
	// A kind with no span in the window (no WAL append without a vote,
	// say) reports 0.
	q := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, q)
	}
	p := func(kind uint8, at float64) float64 { return q(durs[kind], at) }
	m["core.on_envelope_us.p50"] = p(wire.SpanEnvelope, 0.5)
	m["core.on_envelope_us.p99"] = p(wire.SpanEnvelope, 0.99)
	m["core.on_envelope_self_us.p99"] = q(envelopeSelf, 0.99)
	m["core.on_request_us"] = p(wire.SpanRequest, 0.5)
	m["core.on_timer_us"] = p(wire.SpanTimer, 0.5)
	m["core.loop_busy_share"] = busiest
	m["transport.send_us"] = p(wire.SpanSend, 0.5)
	m["store.wal_append_us.p50"] = p(wire.SpanWALAppend, 0.5)
	m["store.wal_append_us.p99"] = p(wire.SpanWALAppend, 0.99)
	m["store.blocklog_append_us"] = p(wire.SpanBlockLog, 0.5)

	// Counters. Every replica pays per transaction; the per-tx figures
	// are cluster totals over the transactions committed in the window.
	m["core.envelopes_per_tx"] = ratio(w.sum(func(c *wire.Counters) float64 { return float64(c.Delivered) }), txs)
	frames := w.sum(func(c *wire.Counters) float64 { return float64(c.FramesOut) })
	m["transport.frames_out_per_tx"] = ratio(frames, txs)
	m["transport.bytes_out_per_tx"] = ratio(w.sum(func(c *wire.Counters) float64 { return float64(c.BytesOut) }), txs)
	m["transport.frames_per_write"] = ratio(frames, w.sum(func(c *wire.Counters) float64 { return float64(c.WriteBatches) }))
	m["transport.dropped"] = w.sum(func(c *wire.Counters) float64 { return float64(c.Dropped) })
	m["transport.redials"] = w.sum(func(c *wire.Counters) float64 { return float64(c.Redials) })
	m["runtime.pool_rejected"] = w.sum(func(c *wire.Counters) float64 { return float64(c.Rejected + c.PoolRejectedFull) })
	m["store.wal_appends_per_tx"] = ratio(w.sum(func(c *wire.Counters) float64 { return float64(c.WALAppends) }), txs)
	m["store.wal_bytes_per_tx"] = ratio(w.sum(func(c *wire.Counters) float64 { return float64(c.WALBytes) }), txs)
	m["go.gc_cpu_share"] = ratio(w.sum(func(c *wire.Counters) float64 { return c.GCCPUSeconds }),
		w.sum(func(c *wire.Counters) float64 { return c.CPUSeconds }))
	m["go.alloc_bytes_per_tx"] = ratio(w.sum(func(c *wire.Counters) float64 { return float64(c.AllocBytes) }), txs)
	hits := w.sum(func(c *wire.Counters) float64 { return float64(c.SigHits) })
	misses := w.sum(func(c *wire.Counters) float64 { return float64(c.SigMisses) })
	m["types.sigcache_hit_share"] = ratio(hits, hits+misses)
	minVerifies := math.Inf(1)
	for i := range w.c.slots {
		v := ratio(w.delta(i, func(c *wire.Counters) float64 { return float64(c.SigMisses) }), txs)
		minVerifies = math.Min(minVerifies, v)
	}
	m["types.sig_verifies_per_tx"] = minVerifies

	// Observer stream: block sizes and views.
	obs := w.observerBlocks()
	var blocks, blockTxs float64
	maxView := map[uint64]uint64{}
	for _, b := range obs {
		if b.WallNs < w.t0 {
			continue
		}
		if b.View > maxView[b.Era] {
			maxView[b.Era] = b.View
		}
		if b.WallNs <= w.t1 {
			blocks++
			blockTxs += float64(b.Txs)
		}
	}
	var views float64
	for _, v := range maxView {
		views += float64(v)
	}
	m["pbft.view_changes"] = views
	m["runtime.txs_per_block"] = ratio(blockTxs, blocks)
	depth := 0
	for _, s := range w.c.slots {
		for _, pr := range s.procs {
			pr.mu.Lock()
			for _, b := range pr.blocks {
				if b.WallNs >= w.t0 && b.WallNs <= w.t1 && b.PoolDepth > depth {
					depth = b.PoolDepth
				}
			}
			pr.mu.Unlock()
		}
	}
	m["runtime.pool_depth_max"] = float64(depth)

	// Recovery: the restarted replica's log open and replay; without a
	// crash, the cold open every node does at start.
	if w.crash != nil {
		pr := w.c.slots[w.crash.victim].cur()
		pr.mu.Lock()
		m["store.recovery_ms"] = float64(pr.ready.OpenNs) / 1e6
		pr.mu.Unlock()
	} else {
		var opens []float64
		for _, s := range w.c.slots {
			opens = append(opens, float64(s.procs[0].ready.OpenNs)/1e6)
		}
		m["store.recovery_ms"] = quantile(opens, 0.5)
	}

	return w.replay(r, depth)
}
