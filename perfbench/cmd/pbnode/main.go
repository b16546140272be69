// Command pbnode is one endorser process of the wall-clock benchmark.
// It wires a G-PBFT node exactly as cmd/gpbft-node does, from the same
// public constructors and defaults (batch 32 growing to 128, the pbft
// default pipelining depth and view-change timeout, a durable block log
// plus vote WAL under -data with fsync on, signed era snapshots), and
// adds one thing: a gob record stream on standard output that tells the
// benchmark runner what the node committed and what its counters read.
//
// With -trace the node also wraps the layer entry points reachable from
// outside the program — the consensus engine, the executor's Send, the
// vote WAL and the block-log append — and keeps one span per call in
// memory, written to <data>/spans.bin when the node exits.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/transport"
	"gpbft/internal/types"
	"gpbft/perfbench/internal/deploy"
	"gpbft/perfbench/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "pbnode: %v\n", err)
		os.Exit(1)
	}
}

// out serializes records onto standard output; the event loop and the
// signal handler both write.
type out struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *gob.Encoder
}

func newOut() *out {
	w := bufio.NewWriterSize(os.Stdout, 64<<10)
	return &out{w: w, enc: gob.NewEncoder(w)}
}

func (o *out) put(r wire.Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.enc.Encode(&r); err != nil {
		log.Printf("record: %v", err)
		return
	}
	if err := o.w.Flush(); err != nil {
		log.Printf("record flush: %v", err)
	}
}

func run() error {
	var (
		index     = flag.Int("index", 0, "node index (derives identity, position and port)")
		portList  = flag.String("ports", "", "comma-separated listen ports of all nodes, by index")
		dataDir   = flag.String("data", "", "directory for the block log, vote WAL, snapshots and trace output")
		eraPeriod = flag.Duration("era", 30*time.Second, "era switch period T")
		report    = flag.Duration("report", 5*time.Second, "own location-report period")
		trace     = flag.Bool("trace", false, "record layer spans and capture envelopes for replay")
	)
	flag.Parse()
	log.SetFlags(log.Lmicroseconds)

	var ports []int
	for _, p := range strings.Split(*portList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("-ports: %v", err)
		}
		ports = append(ports, v)
	}
	n := len(ports)
	if n < 4 || *index < 0 || *index >= n {
		return fmt.Errorf("need at least 4 ports and 0 <= index < %d", n)
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		return err
	}
	epoch := deploy.Epoch
	keys := make([]*gcrypto.KeyPair, n)
	indexOf := make(map[gcrypto.Address]int, n)
	for i := range keys {
		keys[i] = deploy.Key(i)
		indexOf[keys[i].Address()] = i
	}
	nodeIndex := func(a gcrypto.Address) int {
		if i, ok := indexOf[a]; ok {
			return i
		}
		return -1
	}
	self := keys[*index]

	g := deploy.Genesis(n, *eraPeriod, *report)
	chain, err := ledger.NewChain(g)
	if err != nil {
		return fmt.Errorf("genesis: %v", err)
	}

	tr := &tracer{on: *trace, cur: -1, captured: map[consensus.MsgKind]int{}}
	o := newOut()

	// Durable state, as cmd/gpbft-node opens it with -data and -fsync.
	openStart := time.Now()
	dataPath := filepath.Join(*dataDir, "chain.blk")
	blockLog, blocks, err := store.Open(dataPath, store.Options{Sync: true})
	if err != nil {
		return fmt.Errorf("block log: %v", err)
	}
	defer blockLog.Close()
	snapStore, err := store.OpenSnapshotStore(dataPath+".snap", 2)
	if err != nil {
		return fmt.Errorf("snapshot store: %v", err)
	}
	if snap, err := snapStore.Latest(); err == nil && snap != nil {
		if restored, err := ledger.RestoreChain(g, snap.State); err != nil {
			log.Printf("WARNING: snapshot restore at height %d: %v (replaying instead)", snap.Height(), err)
		} else {
			chain = restored
		}
	}
	for _, b := range blocks {
		if b.Header.Height != chain.Height()+1 {
			continue
		}
		if err := chain.AddBlock(b); err != nil {
			return fmt.Errorf("replay block %d: %v", b.Header.Height, err)
		}
	}
	voteWAL, recovered, err := store.OpenWAL(dataPath+".wal", store.WALOptions{})
	if err != nil {
		return fmt.Errorf("consensus wal: %v", err)
	}
	defer voteWAL.Close()
	openNs := time.Since(openStart).Nanoseconds()

	pool := runtime.NewMempoolShards(0, 0)
	app := runtime.NewApp(chain, pool, self.Address(), epoch, 32)
	app.SetMaxBatch(4 * 32)

	var wal core.ConsensusWAL = voteWAL
	if tr.on {
		wal = &tracedWAL{inner: voteWAL, tr: tr}
	}
	eng, err := core.New(core.Config{
		Chain: chain, Key: self, App: app,
		Timers: consensus.NewTimerAllocator(), Epoch: epoch,
		WAL: wal, Recovered: recovered,
		Snapshots: snapStore,
	})
	if err != nil {
		return fmt.Errorf("gpbft: %v", err)
	}

	tcp, err := transport.New(transport.Config{Listen: fmt.Sprintf("127.0.0.1:%d", ports[*index]), Key: self})
	if err != nil {
		return err
	}
	defer tcp.Close()
	for i := 0; i < n; i++ {
		if i != *index {
			tcp.AddPeer(transport.Peer{Addr: keys[i].Address(), HostPort: fmt.Sprintf("127.0.0.1:%d", ports[i])})
		}
	}

	node := &runtime.Node{ID: self.Address(), Key: self, App: app, Engine: eng}
	if tr.on {
		node.Engine = &tracedEngine{inner: eng, tr: tr}
	}
	node.OnCommit = func(_ consensus.Time, b *types.Block) {
		start := time.Now()
		if err := blockLog.Append(b); err != nil {
			log.Printf("WARNING: persist height %d: %v", b.Header.Height, err)
		}
		tr.span(wire.SpanBlockLog, start)
		rec := &wire.Block{
			Height: b.Header.Height, Era: b.Header.Era, View: b.Header.View,
			Hash: b.Hash(), Proposer: nodeIndex(b.Header.Proposer),
			WallNs: start.UnixNano(), Txs: len(b.Txs), PoolDepth: pool.Len(),
		}
		for i := range b.Txs {
			if _, isNode := indexOf[b.Txs[i].Sender]; !isNode {
				id := b.Txs[i].ID()
				rec.TxIDs = append(rec.TxIDs, id[:]...)
			}
		}
		o.put(wire.Record{Block: rec})
	}
	node.OnSnapshotInstall = func(_ consensus.Time, era, height uint64) {
		log.Printf("installed peer snapshot era=%d height=%d", era, height)
		if _, err := blockLog.CompactBelow(height + 1); err != nil {
			log.Printf("WARNING: block log compaction: %v", err)
		}
	}
	chain.SetEraBumpHook(func(st *ledger.ChainState) {
		if st.Height() == 0 {
			return
		}
		if err := snapStore.Add(store.NewSnapshot(st, self)); err != nil {
			log.Printf("WARNING: snapshot write at height %d: %v", st.Height(), err)
		}
	})
	node.OnEraSwitch = func(_ consensus.Time, era uint64, com []gcrypto.Address) {
		sw := &wire.Switch{Era: era, WallNs: time.Now().UnixNano()}
		for _, a := range com {
			sw.Committee = append(sw.Committee, nodeIndex(a))
		}
		o.put(wire.Record{Switch: sw})
		if floor := snapStore.OldestHeight(); floor > chain.BaseHeight() {
			if _, err := blockLog.CompactBelow(floor + 1); err != nil {
				log.Printf("WARNING: block log compaction: %v", err)
			}
			chain.CompactBelow(floor)
		}
	}
	runner := transport.NewRunner(node, tcp)
	if tr.on {
		node.Exec = &tracedExec{inner: runner, tr: tr}
	}

	counters := func() *wire.Counters {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		c := node.Counters()
		st := runner.Stats()
		hits, misses := types.SigCacheStats()
		samples := []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
			{Name: "/gc/heap/allocs:bytes"},
		}
		metrics.Read(samples)
		return &wire.Counters{
			UserUs: ru.Utime.Sec*1e6 + ru.Utime.Usec, SysUs: ru.Stime.Sec*1e6 + ru.Stime.Usec,
			MaxRSSKB:  ru.Maxrss,
			Delivered: c.Delivered, Rejected: c.Rejected, PoolRejectedFull: c.Pool.RejectedFull,
			FramesOut: st.FramesOut, WriteBatches: st.WriteBatches, BytesOut: st.BytesOut,
			Dropped: st.Dropped, Redials: st.Redials,
			SigHits: hits, SigMisses: misses,
			GCCPUSeconds: samples[0].Value.Float64(), CPUSeconds: samples[1].Value.Float64(),
			AllocBytes: samples[2].Value.Uint64(),
			WALAppends: tr.walAppends.Load(), WALBytes: tr.walBytes.Load(),
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 4) // a few queued counter requests
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	defer signal.Stop(sigs)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case s := <-sigs:
				if s == syscall.SIGUSR1 {
					o.put(wire.Record{Counters: counters()})
					continue
				}
				cancel()
			}
		}
	}()

	if *report > 0 {
		go func() {
			nonce := uint64(0)
			ticker := time.NewTicker(*report)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					nonce++
					tx := &types.Transaction{
						Type:  types.TxLocationReport,
						Nonce: nonce,
						Geo:   types.GeoInfo{Location: deploy.Position(*index), Timestamp: time.Now().UTC()},
					}
					tx.Sign(self)
					_ = runner.Submit(tx) // a refused own report is retried next period
				}
			}
		}()
	}

	o.put(wire.Record{Ready: &wire.Ready{OpenNs: openNs}})
	runner.Run(ctx)

	// The event loop has stopped: the chain and the tracer are ours.
	if tr.on {
		if err := tr.write(*dataDir); err != nil {
			log.Printf("WARNING: trace output: %v", err)
		}
	}
	fin := &wire.Final{Base: chain.BaseHeight(), Forks: int(chain.ForkCount())}
	if node.CommitErr != nil {
		fin.CommitErr = node.CommitErr.Error()
	}
	for h := chain.BaseHeight() + 1; h <= chain.Height(); h++ {
		b, err := chain.BlockAt(h)
		if err != nil {
			return fmt.Errorf("final chain at height %d: %v", h, err)
		}
		fin.Hashes = append(fin.Hashes, b.Hash())
	}
	o.put(wire.Record{Counters: counters()})
	o.put(wire.Record{Final: fin})
	return nil
}

// tracer holds the spans of one node. Spans are appended only from the
// event loop; the WAL counters are also read by the signal handler.
type tracer struct {
	on    bool
	spans []wire.Span
	// cur is the index of the latest engine-entry span: the cause of
	// the sends, WAL appends and block-log appends that follow it.
	cur        int32
	walAppends atomic.Uint64
	walBytes   atomic.Uint64
	// captured counts envelopes kept per kind for replay.
	captured map[consensus.MsgKind]int
	capture  bytes.Buffer
}

// capturePerKind bounds the envelopes kept per message kind.
const capturePerKind = 64

func (t *tracer) span(kind uint8, start time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, wire.Span{
		Kind: kind, Parent: t.cur,
		StartNs: start.UnixNano(), DurNs: time.Since(start).Nanoseconds(),
	})
}

// begin opens an engine-entry span and makes it the current cause;
// finish closes it.
func (t *tracer) begin(kind uint8) int {
	t.spans = append(t.spans, wire.Span{Kind: kind, Parent: -1, StartNs: time.Now().UnixNano()})
	t.cur = int32(len(t.spans) - 1)
	return len(t.spans) - 1
}

func (t *tracer) finish(i int) {
	t.spans[i].DurNs = time.Now().UnixNano() - t.spans[i].StartNs
}

func (t *tracer) write(dir string) error {
	f, err := os.Create(filepath.Join(dir, "spans.bin"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := wire.WriteSpans(w, t.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "envelopes.bin"), t.capture.Bytes(), 0o644)
}

// tracedEngine times every engine entry the runtime makes.
type tracedEngine struct {
	inner *core.Engine
	tr    *tracer
}

func (e *tracedEngine) Init(now consensus.Time) []consensus.Action { return e.inner.Init(now) }

func (e *tracedEngine) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	if e.tr.captured[env.MsgKind] < capturePerKind {
		e.tr.captured[env.MsgKind]++
		if err := transport.WriteFrame(&e.tr.capture, env); err != nil {
			log.Printf("capture: %v", err)
		}
	}
	i := e.tr.begin(wire.SpanEnvelope)
	acts := e.inner.OnEnvelope(now, env)
	e.tr.finish(i)
	return acts
}

func (e *tracedEngine) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	i := e.tr.begin(wire.SpanTimer)
	acts := e.inner.OnTimer(now, id)
	e.tr.finish(i)
	return acts
}

func (e *tracedEngine) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	i := e.tr.begin(wire.SpanRequest)
	acts := e.inner.OnRequest(now, tx)
	e.tr.finish(i)
	return acts
}

// OnCommitApplied and SyncStats forward the optional interfaces the
// runtime looks for on its engine.
func (e *tracedEngine) OnCommitApplied(now consensus.Time) []consensus.Action {
	i := e.tr.begin(wire.SpanCommitApplied)
	acts := e.inner.OnCommitApplied(now)
	e.tr.finish(i)
	return acts
}

func (e *tracedEngine) SyncStats() runtime.SyncStats { return e.inner.SyncStats() }

// tracedExec times every envelope handed to the transport.
type tracedExec struct {
	inner runtime.Executor
	tr    *tracer
}

func (x *tracedExec) Send(to gcrypto.Address, env *consensus.Envelope) {
	start := time.Now()
	x.inner.Send(to, env)
	x.tr.span(wire.SpanSend, start)
}

func (x *tracedExec) SetTimer(id consensus.TimerID, delay consensus.Time) {
	x.inner.SetTimer(id, delay)
}
func (x *tracedExec) CancelTimer(id consensus.TimerID) { x.inner.CancelTimer(id) }

// tracedWAL times every vote-WAL append and rotation.
type tracedWAL struct {
	inner *store.WAL
	tr    *tracer
}

func (w *tracedWAL) Append(rec store.WALRecord) error {
	size := int64(len(codec.Encode(&rec)))
	start := time.Now()
	err := w.inner.Append(rec)
	w.tr.span(wire.SpanWALAppend, start)
	w.tr.walAppends.Add(1)
	w.tr.walBytes.Add(uint64(size))
	return err
}

func (w *tracedWAL) Rotate(era uint64) error {
	start := time.Now()
	err := w.inner.Rotate(era)
	w.tr.span(wire.SpanWALRotate, start)
	return err
}

// CompactBelow forwards the optional compaction surface the pbft
// engine looks for on its WAL.
func (w *tracedWAL) CompactBelow(era, seq uint64) (int64, error) {
	return w.inner.CompactBelow(era, seq)
}
