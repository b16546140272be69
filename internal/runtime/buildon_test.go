package runtime

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// peekAndFilterBuildOn is the reference speculative build: peek enough
// of the pool to cover every excluded ID, drop the excluded ones, and
// keep a full base batch or nothing. BuildBlockOn must return exactly
// this block while copying and hashing far less.
func peekAndFilterBuildOn(a *App, now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block {
	want := a.effectiveBatch()
	peeked := a.pool.Peek(want + len(exclude))
	txs := make([]types.Transaction, 0, want)
	for i := range peeked {
		if exclude[peeked[i].ID()] {
			continue
		}
		txs = append(txs, peeked[i])
		if len(txs) == want {
			break
		}
	}
	if len(txs) < a.batch {
		return nil
	}
	return types.NewBlock(types.BlockHeader{
		Height: seq, Era: era, View: view, Seq: seq,
		PrevHash: parent.Hash(), Proposer: a.self, Timestamp: a.WallTime(now),
	}, txs)
}

// TestBuildBlockOnMatchesPeekAndFilter: for random plain and QoS
// pools, random applied prefixes and random in-flight windows (with
// gaps and IDs the pool never saw), the counting pre-check plus the
// skipping peek build byte-for-byte the block the peek-and-filter
// reference builds, including every nil.
func TestBuildBlockOnMatchesPeekAndFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	self := gcrypto.DeterministicKeyPair(0).Address()
	now := consensus.Time(time.Hour)
	built, empty := 0, 0
	for trial := 0; trial < 150; trial++ {
		chain, err := ledger.NewChain(mkGenesis(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		qos := trial%2 == 1
		var pool *Mempool
		if qos {
			pool = NewMempoolQoS(0, 1+rng.Intn(8), QoSConfig{FairShare: 1 + rng.Intn(6), LaneWeights: [3]int{rng.Intn(4), 1 + rng.Intn(4), rng.Intn(3)}})
		} else {
			pool = NewMempoolShards(0, 1+rng.Intn(8))
		}
		batch := 1 + rng.Intn(8)
		app := NewApp(chain, pool, self, epoch, batch)
		if rng.Intn(2) == 0 {
			app.SetMaxBatch(batch + rng.Intn(12))
		}
		nonce := uint64(1)
		for k, n := 0, rng.Intn(90); k < n; k++ {
			tx := mkTx(rng.Intn(4), nonce)
			if qos && rng.Intn(5) == 0 {
				tx = mkReport(rng.Intn(4), nonce)
			}
			nonce++
			if err := app.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		// Apply a random prefix: its blocks stay in the window (the
		// checkpoint has not pruned them) but their transactions have
		// left the pool.
		var packed [][]gcrypto.Hash
		for a := rng.Intn(3); a > 0; a-- {
			b := app.BuildBlock(now, 0, 0, chain.Height()+1)
			if b == nil {
				break
			}
			if err := app.Commit(b); err != nil {
				t.Fatal(err)
			}
			packed = append(packed, blockIDs(b))
		}
		// In-flight slots: random disjoint picks from what is pending,
		// some empty gaps, and IDs unknown to the pool.
		pending := pool.Peek(pool.Len())
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
		for s := rng.Intn(5); s > 0; s-- {
			switch rng.Intn(4) {
			case 0:
				packed = append(packed, nil)
			default:
				k := rng.Intn(min(len(pending), 2*batch) + 1)
				var ids []gcrypto.Hash
				for _, tx := range pending[:k] {
					ids = append(ids, tx.ID())
				}
				pending = pending[k:]
				for u := rng.Intn(batch + 1); u > 0 && rng.Intn(2) == 0; u-- {
					ids = append(ids, gcrypto.HashBytes([]byte{byte(trial), byte(s), byte(u)}))
				}
				packed = append(packed, ids)
			}
		}
		// The window starts right after the last stable checkpoint, which
		// may already cover part of the applied prefix.
		seq := uint64(len(packed)) + 1
		packed = packed[rng.Intn(int(chain.Height())+1):]
		parent := types.NewBlock(types.BlockHeader{Height: seq - 1, Seq: seq - 1, Timestamp: epoch}, nil)
		exclude := make(map[gcrypto.Hash]bool)
		for _, ids := range packed {
			for _, id := range ids {
				exclude[id] = true
			}
		}

		want := peekAndFilterBuildOn(app, now, 0, 0, seq, parent, exclude)
		got := app.BuildBlockOn(now, 0, 0, seq, parent, packed)
		if (want == nil) != (got == nil) {
			t.Fatalf("trial %d (qos=%v batch=%d pool=%d window=%d): reference nil=%v, BuildBlockOn nil=%v",
				trial, qos, batch, pool.Len(), len(packed), want == nil, got == nil)
		}
		if want == nil {
			empty++
			continue
		}
		built++
		if !bytes.Equal(codec.Encode(want), codec.Encode(got)) {
			t.Fatalf("trial %d (qos=%v batch=%d): blocks differ: reference %d txs, BuildBlockOn %d txs",
				trial, qos, batch, len(want.Txs), len(got.Txs))
		}
	}
	if built < 20 || empty < 20 {
		t.Fatalf("trials built %d blocks and %d nils; the generator no longer covers both outcomes", built, empty)
	}
}

func blockIDs(b *types.Block) []gcrypto.Hash {
	ids := make([]gcrypto.Hash, len(b.Txs))
	for i := range b.Txs {
		ids[i] = b.Txs[i].ID()
	}
	return ids
}
