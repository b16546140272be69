package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/transport"
	"gpbft/internal/types"
	"gpbft/perfbench/internal/deploy"
)

// replayDef names one replay microbenchmark: its time per operation in
// microseconds is metric name, its allocations per operation
// allocsName().
type replayDef struct{ name, unit string }

func (r replayDef) allocsName() string { return strings.Replace(r.name, "_us", "_allocs", 1) }

var replays = func() []replayDef {
	defs := []replayDef{
		{"gcrypto.verify_us", "us"},
		{"gcrypto.verify_batch_us_per_sig", "us"},
	}
	for _, k := range replayKinds {
		defs = append(defs,
			replayDef{"codec.encode_us." + k, "us"},
			replayDef{"codec.decode_us." + k, "us"},
			replayDef{"consensus.open_us." + k, "us"})
	}
	return append(defs,
		replayDef{"runtime.mempool_add_us", "us"},
		replayDef{"runtime.mempool_peek_us", "us"},
		replayDef{"runtime.mark_committed_us", "us"},
		replayDef{"ledger.validate_block_us_per_tx", "us"},
		replayDef{"ledger.add_block_us_per_tx", "us"},
		replayDef{"ledger.check_admissible_us", "us"},
		replayDef{"replay.store.wal_append_us", "us"},
		replayDef{"replay.store.blocklog_append_us", "us"},
		replayDef{"replay.transport.write_frame_us", "us"},
		replayDef{"replay.transport.read_frame_us", "us"},
	)
}()

// measured is one replay result.
type measured struct {
	ops       int
	nsPerOp   float64
	allocsPer float64
}

// measure runs op for ops operations (timed, allocations counted) after
// setup (untimed). The per-operation figures divide by perOp units of
// work per call, e.g. transactions per block.
func measure(calls int, perOp float64, setup func(), op func(i int)) measured {
	if setup != nil {
		setup()
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < calls; i++ {
		op(i)
	}
	elapsed := time.Since(start)
	goruntime.ReadMemStats(&after)
	units := float64(calls) * perOp
	return measured{
		ops:       int(units),
		nsPerOp:   float64(elapsed.Nanoseconds()) / units,
		allocsPer: float64(after.Mallocs-before.Mallocs) / units,
	}
}

// replayInputs are what the traced run captured.
type replayInputs struct {
	txs    []*types.Transaction
	envs   map[string][]*consensus.Envelope // by kind name
	blocks []*types.Block                   // the observer's block log
	fresh  func() (*ledger.Chain, error)    // a new chain at blocks[0]'s parent
	wal    []store.WALRecord
}

// replay runs every replay microbenchmark after the nodes have stopped,
// so nothing else competes for the CPU, and records its metrics.
func (w *window) replay(r *result, poolDepth int) error {
	in, err := w.captured()
	if err != nil {
		return err
	}
	res := map[string]measured{}
	if err := runReplays(in, poolDepth, filepath.Join(w.rc.dir, "replay"), res); err != nil {
		return err
	}
	for _, d := range replays {
		mv, ok := res[d.name]
		if !ok {
			return fmt.Errorf("replay %s did not run", d.name)
		}
		r.metrics[d.name] = mv.nsPerOp / 1e3
		r.metrics[d.allocsName()] = mv.allocsPer
		r.note("BenchmarkReplay/%s\t%d\t%.1f ns/op\t%.2f allocs/op", strings.TrimSuffix(d.name, "_us"), mv.ops, mv.nsPerOp, mv.allocsPer)
	}
	return nil
}

// captured gathers the replay inputs: the generator's transactions,
// the envelopes every node kept, and the observer's durable state.
func (w *window) captured() (*replayInputs, error) {
	in := &replayInputs{envs: map[string][]*consensus.Envelope{}}
	for _, g := range w.txs {
		in.txs = append(in.txs, g.tx)
	}
	for i := range w.c.slots {
		b, err := readNodeFile(w.c, i, "envelopes.bin")
		if err != nil {
			return nil, err
		}
		rd := bytes.NewReader(b)
		for {
			env, err := transport.ReadFrame(rd)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("node %d envelopes: %w", i, err)
			}
			k := env.MsgKind.String()
			in.envs[k] = append(in.envs[k], env)
		}
	}
	for _, k := range replayKinds {
		if len(in.envs[k]) == 0 {
			return nil, fmt.Errorf("no %s envelope was captured", k)
		}
	}

	g := deploy.Genesis(w.ws.n, w.ws.era, w.ws.report)
	in.fresh = func() (*ledger.Chain, error) { return ledger.NewChain(g) }
	path := filepath.Join(w.c.nodeDir(w.roles.observer), "chain.blk")
	lg, blocks, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	lg.Close()
	if len(blocks) == 0 {
		return nil, errors.New("observer block log is empty")
	}
	// Compaction keeps the log above the oldest retained snapshot: replay
	// from that snapshot, or from genesis when nothing was compacted.
	if first := blocks[0].Header.Height; first > 1 {
		snap, err := snapshotAt(path+".snap", first-1)
		if err != nil {
			return nil, err
		}
		in.fresh = func() (*ledger.Chain, error) { return ledger.RestoreChain(g, snap.State) }
	}
	in.blocks = blocks
	wl, recs, err := store.OpenWAL(path+".wal", store.WALOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	wl.Close()
	in.wal = recs
	if len(in.wal) == 0 {
		// The WAL was compacted empty at a stable checkpoint: replay the
		// commit-vote records of the logged blocks instead.
		for _, b := range blocks {
			h := b.Header
			in.wal = append(in.wal, store.WALRecord{Kind: store.WALCommit, Era: h.Era, View: h.View, Seq: h.Seq, Digest: b.Hash()})
		}
	}
	return in, nil
}

// snapshotAt reads the retained snapshot at height h.
func snapshotAt(dir string, h uint64) (*store.Snapshot, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		snap, err := store.ReadSnapshotFile(f)
		if err == nil && snap.Height() == h {
			return snap, nil
		}
	}
	return nil, fmt.Errorf("no snapshot at height %d in %s", h, dir)
}

func cycle[T any](xs []T, i int) T { return xs[i%len(xs)] }

func runReplays(in *replayInputs, poolDepth int, dir string, res map[string]measured) error {
	// gcrypto: ed25519 over each captured transaction's canonical bytes.
	kp := gcrypto.DeterministicKeyPair(1 << 20)
	items := make([]gcrypto.BatchItem, len(in.txs))
	for i, tx := range in.txs {
		msg := codec.Encode(tx)
		items[i] = gcrypto.BatchItem{Pub: kp.Public(), Addr: kp.Address(), Msg: msg, Sig: kp.Sign(msg)}
	}
	const verifies = 2000
	var verr error
	res["gcrypto.verify_us"] = measure(verifies, 1, nil, func(i int) {
		it := cycle(items, i)
		if err := gcrypto.Verify(it.Pub, it.Addr, it.Msg, it.Sig); err != nil {
			verr = err
		}
	})
	batch := 128
	if len(items) < batch {
		batch = len(items)
	}
	res["gcrypto.verify_batch_us_per_sig"] = measure(verifies/batch+1, float64(batch), nil, func(i int) {
		if _, err := gcrypto.FirstBatchError(gcrypto.VerifyBatch(items[:batch])); err != nil {
			verr = err
		}
	})
	if verr != nil {
		return fmt.Errorf("replayed verification failed: %w", verr)
	}

	// codec and envelope open, per kind.
	for _, k := range replayKinds {
		envs := in.envs[k]
		wires := make([][]byte, len(envs))
		for i, e := range envs {
			wires[i] = consensus.EncodeEnvelope(e)
		}
		const calls = 2000
		res["codec.encode_us."+k] = measure(calls, 1, nil, func(i int) { consensus.EncodeEnvelope(cycle(envs, i)) })
		var derr error
		res["codec.decode_us."+k] = measure(calls, 1, nil, func(i int) {
			if _, err := consensus.DecodeEnvelope(cycle(wires, i)); err != nil {
				derr = err
			}
		})
		// Fresh decodes, so no envelope carries a verification memo.
		fresh := make([]*consensus.Envelope, calls)
		for i := range fresh {
			e, err := consensus.DecodeEnvelope(cycle(wires, i))
			if err != nil {
				return err
			}
			fresh[i] = e
		}
		res["consensus.open_us."+k] = measure(calls, 1, nil, func(i int) {
			if err := openAs(fresh[i]); err != nil {
				derr = err
			}
		})
		if derr != nil {
			return fmt.Errorf("replayed %s envelope: %w", k, derr)
		}
	}

	// mempool at the deepest pool the run saw.
	if err := replayMempool(in.txs, poolDepth, res); err != nil {
		return err
	}
	if err := replayLedger(in, res); err != nil {
		return err
	}
	if err := replayStore(in, dir, res); err != nil {
		return err
	}

	// transport framing over every captured envelope.
	var all []*consensus.Envelope
	for _, k := range replayKinds {
		all = append(all, in.envs[k]...)
	}
	var buf bytes.Buffer
	const frames = 4000
	var ferr error
	res["replay.transport.write_frame_us"] = measure(frames, 1, nil, func(i int) {
		buf.Reset()
		if err := transport.WriteFrame(&buf, cycle(all, i)); err != nil {
			ferr = err
		}
	})
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		if err := transport.WriteFrame(&stream, cycle(all, i)); err != nil {
			return err
		}
	}
	rd := bytes.NewReader(stream.Bytes())
	res["replay.transport.read_frame_us"] = measure(frames, 1, nil, func(int) {
		if _, err := transport.ReadFrame(rd); err != nil {
			ferr = err
		}
	})
	return ferr
}

// openAs opens an envelope the way the engines do: requests decode
// without the seal check (the transaction authenticates itself), votes
// and proposals verify the seal.
func openAs(e *consensus.Envelope) error {
	switch e.MsgKind {
	case consensus.KindRequest:
		var p pbft.Request
		return consensus.OpenUnverified(e, e.MsgKind, &p)
	case consensus.KindPrePrepare:
		var p pbft.PrePrepare
		return consensus.Open(e, e.MsgKind, &p)
	case consensus.KindPrepare:
		var p pbft.Prepare
		return consensus.Open(e, e.MsgKind, &p)
	case consensus.KindCommit:
		var p pbft.Commit
		return consensus.Open(e, e.MsgKind, &p)
	}
	return fmt.Errorf("no replay for %s", e.MsgKind)
}

func replayMempool(txs []*types.Transaction, depth int, res map[string]measured) error {
	blockTxs := min(128, len(txs)/2)
	if depth < 1 {
		depth = 1
	}
	if depth > len(txs)-blockTxs {
		depth = len(txs) - blockTxs
	}
	if depth < 1 {
		return fmt.Errorf("only %d captured transactions for the mempool replay", len(txs))
	}
	const rounds = 20
	var pool *runtime.Mempool
	fill := func(n int) {
		pool = runtime.NewMempoolShards(0, 0)
		for _, tx := range txs[:n] {
			_ = pool.Add(tx) // distinct, valid, below capacity
		}
	}
	var add, peek, mark measured
	for round := 0; round < rounds; round++ {
		a := measure(blockTxs, 1, func() { fill(depth) }, func(i int) { _ = pool.Add(txs[depth+i]) })
		p := measure(50, 1, func() { fill(depth) }, func(int) { pool.Peek(blockTxs) })
		committed := make([]types.Transaction, blockTxs)
		for i := range committed {
			committed[i] = *txs[depth+i]
		}
		k := measure(1, 1, func() { fill(depth + blockTxs) }, func(int) { pool.MarkCommitted(committed) })
		add, peek, mark = accumulate(add, a), accumulate(peek, p), accumulate(mark, k)
	}
	res["runtime.mempool_add_us"], res["runtime.mempool_peek_us"], res["runtime.mark_committed_us"] = add, peek, mark
	return nil
}

// accumulate merges two measurements weighted by operation count.
func accumulate(a, b measured) measured {
	n := a.ops + b.ops
	if n == 0 {
		return a
	}
	return measured{
		ops:       n,
		nsPerOp:   (a.nsPerOp*float64(a.ops) + b.nsPerOp*float64(b.ops)) / float64(n),
		allocsPer: (a.allocsPer*float64(a.ops) + b.allocsPer*float64(b.ops)) / float64(n),
	}
}

// ledgerReplayTxs bounds the replayed prefix of the observer's chain.
const ledgerReplayTxs = 4000

// replayLedger validates and applies a prefix of the observer's blocks
// onto a chain at their parent. A first, untimed pass fills the
// signature caches so the timed passes measure the ledger's own work.
func replayLedger(in *replayInputs, res map[string]measured) error {
	warm, err := in.fresh()
	if err != nil {
		return err
	}
	var txs int
	blocks := in.blocks
	for i, b := range in.blocks {
		if txs >= ledgerReplayTxs {
			blocks = in.blocks[:i]
			break
		}
		if err := warm.AddBlock(b); err != nil {
			return fmt.Errorf("replay height %d: %w", b.Header.Height, err)
		}
		txs += len(b.Txs)
	}
	if txs == 0 {
		return errors.New("observer blocks carry no transaction")
	}
	var validate, add measured
	var lerr error
	for round := 0; round < 2; round++ {
		c, err := in.fresh()
		if err != nil {
			return err
		}
		for _, b := range blocks {
			per := float64(len(b.Txs))
			if per == 0 {
				per = 1
			}
			v := measure(1, per, nil, func(int) {
				if err := c.ValidateBlock(b); err != nil {
					lerr = err
				}
			})
			a := measure(1, per, nil, func(int) {
				if err := c.AddBlock(b); err != nil {
					lerr = err
				}
			})
			validate, add = accumulate(validate, v), accumulate(add, a)
		}
	}
	if lerr != nil {
		return fmt.Errorf("ledger replay: %w", lerr)
	}
	res["ledger.validate_block_us_per_tx"], res["ledger.add_block_us_per_tx"] = validate, add
	res["ledger.check_admissible_us"] = measure(2000, 1, nil, func(i int) {
		if err := warm.CheckTxAdmissible(cycle(in.txs, i)); err != nil {
			lerr = err
		}
	})
	return lerr
}

// replayStore appends the captured vote records and blocks to fresh
// logs with fsync on, as the nodes run them.
func replayStore(in *replayInputs, dir string, res map[string]measured) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wl, _, err := store.OpenWAL(filepath.Join(dir, "replay.wal"), store.WALOptions{})
	if err != nil {
		return err
	}
	var serr error
	res["replay.store.wal_append_us"] = measure(300, 1, nil, func(i int) {
		if err := wl.Append(cycle(in.wal, i)); err != nil {
			serr = err
		}
	})
	if err := wl.Close(); err != nil {
		return err
	}
	lg, _, err := store.Open(filepath.Join(dir, "replay.blk"), store.Options{Sync: true})
	if err != nil {
		return err
	}
	n := len(in.blocks)
	if n > 300 {
		n = 300
	}
	res["replay.store.blocklog_append_us"] = measure(n, 1, nil, func(i int) {
		if err := lg.Append(in.blocks[i]); err != nil {
			serr = err
		}
	})
	if err := lg.Close(); err != nil {
		return err
	}
	return serr
}
