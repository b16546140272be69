package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/perfbench/internal/deploy"
	"gpbft/perfbench/internal/wire"
)

// workloadSpec is one benchmark workload. Why each exists is recorded
// in BENCHMARK.json; the rates come from calibration.json.
type workloadSpec struct {
	name string
	n    int
	// era is the genesis policy's EraPeriod. No workload forces a
	// switch, and with every endorser reporting the election changes
	// nothing, so the committee stays as genesis set it.
	era time.Duration
	// report is the genesis policy's ReportInterval: each node's own
	// location-report period and each device's.
	report time.Duration
	// rate is the nominal rate of the transaction stream in tx/s: the
	// offered load of the open loop. With window > 0 the loop is closed
	// with window transactions outstanding, and rate is about the goodput
	// it reaches, so the stream's report share and timestamps follow what
	// the cluster commits.
	rate   float64
	window int
	// killAt, when positive, SIGKILLs the replica that proposed the
	// latest block this far into the window; it restarts from its data
	// directory restartAfter later.
	killAt       time.Duration
	restartAfter time.Duration
	// drain bounds the wait for outstanding transactions after the
	// window; what is still uncommitted then counts as failed.
	drain time.Duration
}

var workloads = map[string]workloadSpec{
	// The paper's committee scale: O(n²) envelopes per slot at light
	// per-tx load. The paper's era switch every T is left out: at this
	// scale a switch now and then leaves some endorsers behind in the
	// old era for good, and with the entry or the observer among them
	// thousands of transactions fail, so failed would differ from run to
	// run. The 3 s report period makes device reports 60 of the 80 tx/s,
	// the mix calibration.json was measured with.
	"paper-c22": {
		name: "paper-c22", n: 22, era: 10 * time.Minute, report: 3 * time.Second,
		rate: 80, drain: 5 * time.Second,
	},
	// Full blocks: window = MaxInFlight (8) x max block (128); rate is
	// about the goodput this window reaches (1,000-1,500 tx/s).
	"saturate-c7": {
		name: "saturate-c7", n: 7, era: 30 * time.Second, report: 5 * time.Second,
		rate: 1000, window: 1024, drain: 5 * time.Second,
	},
	// About a third of the c7 knee (600-800 tx/s in calibration.json),
	// with the latest proposer killed and restarted mid-window.
	"crash-c7": {
		name: "crash-c7", n: 7, era: 30 * time.Second, report: 5 * time.Second,
		rate: 250, killAt: 4 * time.Second, restartAfter: 2 * time.Second,
		drain: 5 * time.Second,
	},
}

type runConfig struct {
	bin     string
	dir     string
	seed    int64
	seconds int
	trace   bool
	// setups is how often the run sets the cluster up; setup_s is the
	// median and the last cluster carries the measured window.
	setups int
}

const (
	warmupTxs      = 64
	generatorConns = 2 // one per core of the 2-core calibration VM
)

// tracker accounts the observer's commits against the generator's
// transactions. onBlock runs on the node reader goroutines.
type tracker struct {
	byID     map[gcrypto.Hash]*genTx
	observer atomic.Int32 // -1 until roles are chosen
	probeID  gcrypto.Hash
	probe    chan wire.Block
	unknown  atomic.Int64
	closed   atomic.Pointer[closedLoop]
}

func (t *tracker) onBlock(index int, b *wire.Block) {
	obs := int(t.observer.Load())
	for off := 0; off+32 <= len(b.TxIDs); off += 32 {
		var id gcrypto.Hash
		copy(id[:], b.TxIDs[off:off+32])
		if obs < 0 {
			if id == t.probeID {
				select {
				case t.probe <- *b:
				default:
				}
			}
			continue
		}
		if index != obs {
			continue
		}
		g, ok := t.byID[id]
		if !ok {
			t.unknown.Add(1)
			continue
		}
		if g.commits.Add(1) == 1 {
			g.commitNs.Store(b.WallNs)
			if cl := t.closed.Load(); cl != nil {
				cl.release(b.WallNs)
			}
		}
	}
}

// roles are the replicas the generator talks to: it writes to entry
// and times commits at observer. The entry leads the view after the
// primary's, so when the crash workload kills the primary the entry
// proposes what it holds; a replica that is itself changing views keeps
// a client's transaction without relaying it. The observer leads the
// view before the primary's: the last one a view change reaches.
type roles struct{ entry, observer int }

// pickRoles places the entry and observer next to the primary in the
// rotation order of the genesis committee.
func pickRoles(order []int, primary int) roles {
	n := len(order)
	for k, i := range order {
		if i == primary {
			return roles{entry: order[(k+1)%n], observer: order[(k+n-1)%n]}
		}
	}
	return roles{entry: order[0], observer: order[n-1]} // not reached: the primary is a member
}

// rotation returns the node indices of an n-endorser genesis committee
// in primary-rotation order, as core orders the era-0 committee.
func rotation(n int, era, report time.Duration) ([]int, error) {
	chain, err := ledger.NewChain(deploy.Genesis(n, era, report))
	if err != nil {
		return nil, err
	}
	index := make(map[gcrypto.Address]int, n)
	for i := 0; i < n; i++ {
		index[deploy.Key(i).Address()] = i
	}
	var order []int
	for _, m := range core.OrderByGeoTimer(chain.Endorsers(), chain.Table()) {
		order = append(order, index[m.Address])
	}
	return order, nil
}

// live is one set-up cluster with the generator's connections to it.
type live struct {
	c     *cluster
	roles roles
	conns []net.Conn
	// readyAt and probedAt split the set-up: every node listening, and
	// the probe transaction committed.
	readyAt, probedAt time.Time
}

func (l *live) close() {
	for _, conn := range l.conns {
		conn.Close()
	}
	l.c.stop()
}

// setUp spawns the cluster, finds the primary with one probe
// transaction, connects the generator to the entry replica and waits
// until the warm-up transactions commit at the observer.
func setUp(ws workloadSpec, rc runConfig, dir string, order []int, tk *tracker, probe *genTx, warm []*genTx) (*live, error) {
	tk.observer.Store(-1)
	tk.probe = make(chan wire.Block, 1)
	tk.probeID = probe.id
	for _, g := range append([]*genTx{probe}, warm...) {
		g.commits.Store(0)
		g.commitNs.Store(0)
	}
	c, err := startCluster(clusterConfig{
		bin: rc.bin, dir: dir, n: ws.n, era: ws.era, report: ws.report, trace: rc.trace,
	}, tk.onBlock)
	if err != nil {
		return nil, err
	}
	l := &live{c: c}
	if err := l.warmUp(order, tk, probe, warm); err != nil {
		l.close()
		c.dumpLogs(os.Stderr)
		return nil, err
	}
	return l, nil
}

func (l *live) warmUp(order []int, tk *tracker, probe *genTx, warm []*genTx) error {
	c := l.c
	if err := c.waitReady(60 * time.Second); err != nil {
		return err
	}
	l.readyAt = time.Now()
	pc, err := net.Dial("tcp", c.addr(0))
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	send(pc, probe)
	var primary int
	select {
	case b := <-tk.probe:
		primary = b.Proposer
	case <-time.After(60 * time.Second):
		pc.Close()
		return errors.New("probe transaction never committed")
	}
	pc.Close()
	l.probedAt = time.Now()
	if primary < 0 {
		return errors.New("probe block proposed by an unknown identity")
	}
	l.roles = pickRoles(order, primary)
	tk.observer.Store(int32(l.roles.observer))
	for k := 0; k < generatorConns; k++ {
		conn, err := net.Dial("tcp", c.addr(l.roles.entry))
		if err != nil {
			return fmt.Errorf("connect to entry: %w", err)
		}
		l.conns = append(l.conns, conn)
		go readRejects(conn, tk.byID)
	}
	for i, g := range warm {
		send(l.conns[i%len(l.conns)], g)
	}
	if !waitUntil(60*time.Second, func() bool { return allCommitted(warm) }) {
		return errors.New("warm-up transactions did not commit")
	}
	return nil
}

func allCommitted(txs []*genTx) bool {
	for _, g := range txs {
		if g.commits.Load() == 0 {
			return false
		}
	}
	return true
}

// waitUntil polls cond every millisecond until it holds or timeout
// passes; the fine step keeps the poll out of setup_s.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// crashInfo records the crash workload's fault.
type crashInfo struct {
	victim    int
	killNs    int64
	restartNs int64
	preKill   *wire.Counters
}

// window is everything one measured window produced.
type window struct {
	ws         workloadSpec
	rc         runConfig
	t0, t1     int64
	roles      roles
	c          *cluster
	txs        []*genTx // attempted: the window's sent transactions
	start, end []*wire.Counters
	crash      *crashInfo
	setups     []float64
	// phases are the set-ups' [ready, probe committed] offsets in s.
	phases    [][2]float64
	unknown   int64
	exhausted bool
}

// runWorkload sets the cluster up rc.setups times, measures one window
// on the last set-up, drains, stops every node and evaluates the run.
func runWorkload(ws workloadSpec, rc runConfig) (*result, error) {
	span := time.Duration(rc.seconds) * time.Second
	mainCount := int(ws.rate * float64(rc.seconds))
	if ws.window > 0 {
		// The closed loop may commit up to twice the nominal rate before
		// the pre-signed stream runs out (a violation if it does).
		mainCount = 2*mainCount + ws.window
	}
	all := makeTxs(ws.n, rc.seed, 1+warmupTxs+mainCount, ws.rate, ws.report)
	probe, warm, mainTxs := all[0], all[1:1+warmupTxs], all[1+warmupTxs:]
	tk := &tracker{byID: make(map[gcrypto.Hash]*genTx, len(all))}
	for _, g := range all {
		tk.byID[g.id] = g
	}

	order, err := rotation(ws.n, ws.era, ws.report)
	if err != nil {
		return nil, err
	}
	w := &window{ws: ws, rc: rc}
	var l *live
	for k := 0; k < rc.setups; k++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("setup%d", k))
		// Every set-up starts from empty storage.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		l, err = setUp(ws, rc, dir, order, tk, probe, warm)
		if err != nil {
			return nil, fmt.Errorf("%s setup %d: %w", ws.name, k, err)
		}
		w.setups = append(w.setups, time.Since(start).Seconds())
		w.phases = append(w.phases, [2]float64{l.readyAt.Sub(start).Seconds(), l.probedAt.Sub(start).Seconds()})
		if k < rc.setups-1 {
			l.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer l.close()
	w.c, w.roles = l.c, l.roles

	t0 := time.Now().Add(200 * time.Millisecond)
	t1 := t0.Add(span)
	w.t0, w.t1 = t0.UnixNano(), t1.UnixNano()
	if w.start, err = l.c.snapshot(10 * time.Second); err != nil {
		return nil, err
	}

	// stop ends the closed loop at the end of the window; abort ends
	// the open loop early on an error. The open loop sends its whole
	// schedule, so the attempted count is fixed by the seed.
	stop, abort := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var exhausted atomic.Bool
	if ws.window == 0 {
		period := float64(time.Second) / ws.rate
		parts := make([][]*genTx, generatorConns)
		for i, g := range mainTxs {
			g.schedNs = w.t0 + int64(float64(i)*period)
			parts[i%generatorConns] = append(parts[i%generatorConns], g)
		}
		for k := range parts {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sendOpenLoop(l.conns[k], parts[k], abort)
			}(k)
		}
	} else {
		cl := newClosedLoop(mainTxs, ws.window, w.t0)
		tk.closed.Store(cl)
		sleepUntil(t0)
		for k := 0; k < generatorConns; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if !cl.run(l.conns[k], stop) {
					exhausted.Store(true)
				}
			}(k)
		}
	}

	if ws.killAt > 0 {
		sleepUntil(t0.Add(ws.killAt))
		if w.crash, err = crash(l, ws); err != nil {
			close(stop)
			close(abort)
			wg.Wait()
			return nil, err
		}
	}
	sleepUntil(t1)
	close(stop)
	w.end, err = l.c.snapshot(10 * time.Second)
	wg.Wait()
	tk.closed.Store(nil)
	if err != nil {
		return nil, err
	}
	w.exhausted = exhausted.Load()
	for _, g := range mainTxs {
		if g.sentNs != 0 {
			w.txs = append(w.txs, g)
		}
	}

	// Drain: wait for every attempted transaction to commit or fail,
	// and for a restarted replica to catch up, up to the deadline.
	waitUntil(time.Until(t1.Add(ws.drain)), func() bool {
		for _, g := range w.txs {
			if g.commits.Load() == 0 && !g.writeErr && !g.rejected.Load() {
				return false
			}
		}
		return w.crash == nil || w.recoveryNs() > 0
	})
	w.unknown = tk.unknown.Load()
	l.close()
	return w.evaluate()
}

// crash kills the replica that proposed the observer's latest block
// (never the entry or the observer) and restarts it later.
func crash(l *live, ws workloadSpec) (*crashInfo, error) {
	obs := l.c.slots[l.roles.observer].cur()
	obs.mu.Lock()
	victim := -1
	if len(obs.blocks) > 0 {
		victim = obs.blocks[len(obs.blocks)-1].Proposer
	}
	obs.mu.Unlock()
	if victim < 0 || victim == l.roles.entry || victim == l.roles.observer {
		for i := 0; i < l.c.cfg.n; i++ {
			if i != l.roles.entry && i != l.roles.observer {
				victim = i
				break
			}
		}
	}
	pre, err := l.c.snapshotOf([]int{victim}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	ci := &crashInfo{victim: victim, preKill: pre[victim]}
	ci.killNs = time.Now().UnixNano()
	l.c.kill(victim)
	time.Sleep(ws.restartAfter)
	ci.restartNs = time.Now().UnixNano()
	if err := l.c.restart(victim); err != nil {
		return nil, err
	}
	return ci, nil
}

// observerBlocks returns the observer's committed blocks in order.
func (w *window) observerBlocks() []wire.Block {
	p := w.c.slots[w.roles.observer].cur()
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]wire.Block(nil), p.blocks...)
}

// recoveryNs is when the restarted replica first committed a height at
// least the observer's head at that moment, or 0 if it has not yet.
func (w *window) recoveryNs() int64 {
	if w.crash == nil {
		return 0
	}
	obs := w.observerBlocks()
	p := w.c.slots[w.crash.victim].cur()
	p.mu.Lock()
	mine := append([]wire.Block(nil), p.blocks...)
	p.mu.Unlock()
	for _, b := range mine {
		// The observer's head at b's commit time.
		i := sort.Search(len(obs), func(i int) bool { return obs[i].WallNs > b.WallNs })
		if i == 0 || b.Height >= obs[i-1].Height {
			return b.WallNs
		}
	}
	return 0
}

// readNodeFile reads a file a node left in its data directory.
func readNodeFile(c *cluster, i int, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(c.nodeDir(i), name))
}
