package main

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/transport"
	"gpbft/internal/types"
	"gpbft/internal/workload"
	"gpbft/perfbench/internal/deploy"
)

// genTx is one pre-signed transaction and its fate.
type genTx struct {
	tx    *types.Transaction
	id    gcrypto.Hash
	frame []byte // the framed, sealed pbft.Request, exactly as gpbft-client writes it
	// schedNs is when the transaction was due: its slot in the open-loop
	// schedule, or the moment its closed-loop window slot freed up.
	schedNs  int64
	sentNs   int64
	commitNs atomic.Int64 // wall time of the commit at the observer
	commits  atomic.Int32 // how often the observer committed it
	writeErr bool
	rejected atomic.Bool
}

// deploymentSize is the paper's largest testbed (n = 202, Table III):
// the benchmark's endorser processes plus the devices the generator
// plays always add up to it.
const deploymentSize = 202

// population is the device side of an n-endorser deployment: the
// 202 - n other nodes, split evenly between fixed and mobile devices
// (the paper gives no split). Identities vary with the seed and never
// collide with node identities (small indices).
func population(n int, seed int64) *workload.Population {
	d := deploymentSize - n
	return workload.NewPopulation(workload.HongKongTestbed(), workload.Spec{
		Fixed: d - d/2, Mobile: d / 2,
		SeedBase: 100000 + int(seed%1000)*1000,
	}, seed)
}

// makeTxs builds the first count transactions of an n-endorser
// workload's device stream, deterministically from seed. Transaction i
// is due at nominal time i/rate. Every device files a location report
// once per reportEvery, the genesis policy's ReportInterval (device k
// of D at k*reportEvery/D, then round robin); every other transaction
// is a data transaction of a random device carrying a 3-byte counter,
// the payload internal/loadgen's TCP client sends. Timestamps are the
// nominal times from the deployment epoch, the clock the nodes stamp
// blocks with.
func makeTxs(n int, seed int64, count int, rate float64, reportEvery time.Duration) []*genTx {
	pop := population(n, seed)
	devices := pop.Devices
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	reportGap := reportEvery / time.Duration(len(devices))
	step := time.Duration(float64(time.Second) / rate)
	txs := make([]*genTx, count)
	signer := make([]*gcrypto.KeyPair, count)
	var reports, data int
	var moved time.Duration
	for i := range txs {
		t := step * time.Duration(i)
		for ; moved+time.Second <= t; moved += time.Second {
			pop.AdvanceAll(time.Second)
		}
		at := deploy.Epoch.Add(t)
		var d *workload.Device
		var tx *types.Transaction
		if reportGap*time.Duration(reports) <= t {
			d = devices[reports%len(devices)]
			tx = d.LocationReport(at)
			reports++
		} else {
			d = devices[rng.Intn(len(devices))]
			tx = d.DataTx(at, []byte{byte(data), byte(data >> 8), byte(data >> 16)}, 1)
			data++
		}
		txs[i] = &genTx{tx: tx, id: tx.ID()}
		signer[i] = d.Key
	}
	// Sealing the request envelopes is the other half of the signing;
	// split it over two workers, keyed by position so the result does
	// not depend on scheduling.
	var wg sync.WaitGroup
	const sealers = 2
	for w := 0; w < sealers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; i < count; i += sealers {
				g := txs[i]
				buf.Reset()
				if err := transport.WriteFrame(&buf, consensus.Seal(signer[i], &pbft.Request{Tx: *g.tx})); err != nil {
					panic(err) // writing to a bytes.Buffer cannot fail
				}
				g.frame = append([]byte(nil), buf.Bytes()...)
			}
		}(w)
	}
	wg.Wait()
	return txs
}

// sendOpenLoop writes txs to w, each at its schedNs, never retrying,
// until every one is sent or abort closes. A write that runs late still
// goes out; its lateness is the generator's lag and stays inside the
// measured latency, which starts at schedNs.
func sendOpenLoop(w io.Writer, txs []*genTx, abort <-chan struct{}) {
	for _, g := range txs {
		if d := time.Until(time.Unix(0, g.schedNs)); d > 0 {
			select {
			case <-abort:
				return
			case <-time.After(d):
			}
		}
		send(w, g)
	}
}

func send(w io.Writer, g *genTx) {
	if _, err := w.Write(g.frame); err != nil {
		g.writeErr = true
	}
	g.sentNs = time.Now().UnixNano()
}

// closedLoop keeps a fixed window of transactions outstanding: a slot
// frees when the observer commits one of its transactions, and the next
// transaction is due at that moment.
type closedLoop struct {
	slots chan int64 // release times; capacity = window
	next  atomic.Int64
	txs   []*genTx
}

func newClosedLoop(txs []*genTx, window int, startNs int64) *closedLoop {
	cl := &closedLoop{slots: make(chan int64, window), txs: txs}
	for i := 0; i < window; i++ {
		cl.slots <- startNs
	}
	return cl
}

// release frees one window slot at wall time ns.
func (cl *closedLoop) release(ns int64) {
	select {
	case cl.slots <- ns:
	default: // more commits than sends: never happens, never block the reader
	}
}

// run sends until stop closes or the pre-signed transactions run out;
// it reports false in the latter case.
func (cl *closedLoop) run(w io.Writer, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return true
		case due := <-cl.slots:
			i := int(cl.next.Add(1) - 1)
			if i >= len(cl.txs) {
				return false
			}
			g := cl.txs[i]
			g.schedNs = due
			send(w, g)
		}
	}
}

// readRejects counts signed TxRejected replies on a client connection;
// a rejected transaction counts as failed (the generator never retries).
func readRejects(r io.Reader, byID map[gcrypto.Hash]*genTx) {
	for {
		env, err := transport.ReadFrame(r)
		if err != nil {
			return
		}
		var rej pbft.TxRejected
		if consensus.Open(env, consensus.KindTxReject, &rej) != nil {
			continue
		}
		if g, ok := byID[rej.TxID]; ok {
			g.rejected.Store(true)
		}
	}
}
