package core_test

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// blockSyncSends counts the block-sync messages (requests, in these
// tests) among the Send actions in acts.
func blockSyncSends(acts []consensus.Action) int {
	n := 0
	for _, k := range sendKinds(acts) {
		if k == consensus.KindBlockSync {
			n++
		}
	}
	return n
}

// TestPipelinedRunPullsNothing: in a fault-free run whose pipeline
// keeps several slots in flight, commits for slots above a replica's
// head are ordinary pipelining. No replica may start a lag pull, and
// no block-sync message may cross the network.
func TestPipelinedRunPullsNothing(t *testing.T) {
	o := fastOpts(4)
	o.BatchSize = 4
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 240
	for k := 0; k < txs; k++ {
		c.SubmitNodeTx(time.Duration(10+k/8)*time.Millisecond, k%4, []byte{byte(k), byte(k >> 8)}, 1)
	}
	maxInFlight := 0
	for at := 10 * time.Millisecond; at < 200*time.Millisecond; at += time.Millisecond {
		c.Net().Schedule(at, func(consensus.Time) {
			for i := 0; i < c.NodeCount(); i++ {
				if used, _ := c.CoreEngine(i).InFlight(); used > maxInFlight {
					maxInFlight = used
				}
			}
		})
	}
	c.RunUntilIdle(time.Minute)

	if got := c.Metrics().CommittedCount(); got != txs {
		t.Fatalf("committed %d of %d transactions", got, txs)
	}
	if maxInFlight < 2 {
		t.Fatalf("the pipeline never held more than %d slot(s) in flight; the run does not exercise pipelined commits", maxInFlight)
	}
	for i := 0; i < c.NodeCount(); i++ {
		if st := c.SyncStats(i); st.LagPulls != 0 {
			t.Errorf("node %d started %d lag pulls in a fault-free run", i, st.LagPulls)
		}
	}
	for _, ks := range c.Traffic().ByKind() {
		if ks.Kind == consensus.KindBlockSync && ks.Count != 0 {
			t.Errorf("%d block-sync messages sent in a fault-free run", ks.Count)
		}
	}
}

// proposalRig holds a grown cluster plus chained pre-prepares for the
// next slots above its head, sealed by the view's primary and built by
// the primary's own application.
type proposalRig struct {
	c    *gpbft.Cluster
	prim int
	head uint64
	pps  []*consensus.Envelope
}

func newProposalRig(t *testing.T, slots int) *proposalRig {
	t.Helper()
	c := grownCluster(t, 4)
	prim := -1
	for i := 0; i < 4; i++ {
		if c.CoreEngine(i).Inner().IsPrimary() {
			prim = i
		}
	}
	if prim < 0 {
		t.Fatal("no primary among the endorsers")
	}
	r := &proposalRig{c: c, prim: prim, head: c.Node(prim).App.Chain().Height()}
	app := c.Node(prim).App
	view := c.CoreEngine(prim).Inner().View()
	now := c.Now() + time.Second
	var parent *types.Block
	var packed [][]gcrypto.Hash
	for s := 0; s < slots; s++ {
		if err := app.SubmitTx(c.NewNodeTx(prim, now, []byte{0xee, byte(s)}, 1)); err != nil {
			t.Fatal(err)
		}
		seq := r.head + 1 + uint64(s)
		var b *types.Block
		if parent == nil {
			b = app.BuildBlock(now, 0, view, seq)
		} else {
			b = app.BuildBlockOn(now, 0, view, seq, parent, packed)
		}
		if b == nil {
			t.Fatalf("primary built no block for slot %d", seq)
		}
		ids := make([]gcrypto.Hash, len(b.Txs))
		for i := range b.Txs {
			ids[i] = b.Txs[i].ID()
		}
		packed = append(packed, ids)
		r.pps = append(r.pps, consensus.Seal(c.Node(prim).Key, &pbft.PrePrepare{
			Era: 0, View: view, Seq: seq, Digest: b.Hash(), Block: *b,
		}))
		parent = b
	}
	return r
}

// backups returns two endorser indices that are not the primary.
func (r *proposalRig) backups() (int, int) {
	var out []int
	for i := 0; i < 4; i++ {
		if i != r.prim {
			out = append(out, i)
		}
	}
	return out[0], out[1]
}

func (r *proposalRig) commitFrom(i int, seq uint64) *consensus.Envelope {
	view := r.c.CoreEngine(i).Inner().View()
	return consensus.Seal(r.c.Node(i).Key, &pbft.Commit{Era: 0, View: view, Seq: seq, Digest: gcrypto.Hash{0xab}})
}

// TestInWindowCommitsDoNotTriggerSync: a backup holding the accepted
// proposal for every slot between its head and an overheard commit is
// pipelining, not lagging, so it sends no SyncRequest. A backup that
// misses one pre-prepare in that range still pulls at once.
func TestInWindowCommitsDoNotTriggerSync(t *testing.T) {
	r := newProposalRig(t, 3)
	holder, gapped := r.backups()
	now := r.c.Now()

	eng := r.c.CoreEngine(holder)
	for _, pp := range r.pps {
		if n := blockSyncSends(eng.OnEnvelope(now, pp)); n != 0 {
			t.Fatalf("accepting a pre-prepare spawned %d sync requests", n)
		}
	}
	if used, _ := eng.InFlight(); used != len(r.pps) {
		t.Fatalf("backup holds %d in-flight slots, want %d", used, len(r.pps))
	}
	for _, seq := range []uint64{r.head + 2, r.head + 3, r.head + 4} {
		if n := blockSyncSends(eng.OnEnvelope(now, r.commitFrom(r.prim, seq))); n != 0 {
			t.Fatalf("in-window commit for slot %d spawned %d sync requests", seq, n)
		}
	}
	if st := eng.SyncStats(); st.LagPulls != 0 {
		t.Fatalf("in-window commits counted %d lag pulls", st.LagPulls)
	}
	// Past the window: the slots in between hold no proposal.
	if n := blockSyncSends(eng.OnEnvelope(now, r.commitFrom(r.prim, r.head+20))); n != 1 {
		t.Fatalf("commit past the window spawned %d sync requests, want 1", n)
	}

	// The other backup saw only the first proposal: slot head+2 is
	// missing, so a commit for head+3 is evidence of lag.
	geng := r.c.CoreEngine(gapped)
	geng.OnEnvelope(now, r.pps[0])
	if n := blockSyncSends(geng.OnEnvelope(now, r.commitFrom(r.prim, r.head+3))); n != 1 {
		t.Fatalf("commit above a missing pre-prepare spawned %d sync requests, want 1", n)
	}
	if st := geng.SyncStats(); st.LagPulls != 1 {
		t.Fatalf("LagPulls = %d after one pull, want 1", st.LagPulls)
	}
}

// TestRestartedReplicaPullsAtOnce: a replica restarted mid-era holds
// no instances at all, so the first commit above its head pulls.
func TestRestartedReplicaPullsAtOnce(t *testing.T) {
	r := newProposalRig(t, 1)
	b, _ := r.backups()
	o := r.c.Options()
	restarted, err := core.New(core.Config{
		Chain:             r.c.Node(b).App.Chain(),
		Key:               r.c.Node(b).Key,
		App:               r.c.Node(b).App,
		Timers:            consensus.NewTimerAllocator(),
		Epoch:             o.Epoch,
		ViewChangeTimeout: o.ViewChangeTimeout,
		EraPeriod:         o.EraPeriod,
		SwitchPeriod:      o.SwitchPeriod,
		DisableEraSwitch:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	restarted.Init(r.c.Now())
	if n := blockSyncSends(restarted.OnEnvelope(r.c.Now(), r.commitFrom(r.prim, r.head+2))); n != 1 {
		t.Fatalf("restarted replica spawned %d sync requests, want 1", n)
	}
	if st := restarted.SyncStats(); st.LagPulls != 1 {
		t.Fatalf("LagPulls = %d, want 1", st.LagPulls)
	}
}
