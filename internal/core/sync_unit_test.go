package core_test

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// syncActions extracts the (to, kind) pairs of Send actions.
func sendKinds(acts []consensus.Action) []consensus.MsgKind {
	var out []consensus.MsgKind
	for _, a := range acts {
		if s, ok := a.(consensus.Send); ok {
			out = append(out, s.Env.MsgKind)
		}
	}
	return out
}

// grownCluster builds a 5-node cluster (4 endorsers + 1 observer) with
// some committed blocks, and returns it after quiescence.
func grownCluster(t *testing.T, blocks int) *gpbft.Cluster {
	t.Helper()
	o := fastOpts(5)
	o.GenesisEndorsers = 4
	o.MaxEndorsers = 8
	o.BatchSize = 1
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < blocks; k++ {
		c.SubmitNodeTx(time.Duration(10+k*30)*time.Millisecond, k%4, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(time.Minute)
	if got := c.Node(0).App.Chain().Height(); got < uint64(blocks) {
		t.Fatalf("setup: height %d < %d", got, blocks)
	}
	return c
}

// TestServeSyncBounds drives an endorser engine's sync-serving path
// directly with crafted requests.
func TestServeSyncBounds(t *testing.T) {
	c := grownCluster(t, 10)
	endorser := c.CoreEngine(0)
	requester := gcrypto.DeterministicKeyPair(4) // the observer's key

	ask := func(from uint64) []consensus.Action {
		req := consensus.Seal(requester, &core.SyncRequest{FromHeight: from})
		return endorser.OnEnvelope(0, req)
	}
	// A normal request is answered with one block-sync response.
	acts := ask(1)
	kinds := sendKinds(acts)
	if len(kinds) != 1 || kinds[0] != consensus.KindBlockSync {
		t.Fatalf("expected one sync response, got %v", kinds)
	}
	// FromHeight 0 is normalized to 1 (genesis is never shipped).
	if got := sendKinds(ask(0)); len(got) != 1 {
		t.Fatalf("from=0: %v", got)
	}
	// A request beyond the head gets nothing.
	if got := sendKinds(ask(10_000)); len(got) != 0 {
		t.Fatalf("beyond head: %v", got)
	}
}

// TestAnnounceTriggersSingleSync: repeated announcements for the same
// height must not spam sync requests.
func TestAnnounceTriggersSingleSync(t *testing.T) {
	c := grownCluster(t, 6)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key

	h := c.Node(0).App.Chain().Height()
	ann := consensus.Seal(endorserKey, &core.EraAnnounce{NewEra: 0, Height: h})
	first := sendKinds(observer.OnEnvelope(0, ann))
	if len(first) != 1 || first[0] != consensus.KindBlockSync {
		t.Fatalf("first announce: %v", first)
	}
	// Duplicate announce while a sync is in flight: no second request.
	if again := sendKinds(observer.OnEnvelope(0, ann)); len(again) != 0 {
		t.Fatalf("duplicate announce spawned requests: %v", again)
	}
	// An announce for a HIGHER height re-requests.
	ann2 := consensus.Seal(endorserKey, &core.EraAnnounce{NewEra: 0, Height: h + 5})
	if more := sendKinds(observer.OnEnvelope(0, ann2)); len(more) != 1 {
		t.Fatalf("higher announce: %v", more)
	}
}

// TestLaggingCommitTriggersSync: an endorser that overhears a commit
// vote for a height beyond its own head has provably missed blocks
// (a node restarted mid-era sees exactly this) and must pull them
// right away instead of waiting for the next era announcement.
func TestLaggingCommitTriggersSync(t *testing.T) {
	c := grownCluster(t, 4)
	endorser := c.CoreEngine(0)
	peer := c.Node(1).Key
	h := c.Node(0).App.Chain().Height()

	syncReqs := func(acts []consensus.Action) int {
		n := 0
		for _, k := range sendKinds(acts) {
			if k == consensus.KindBlockSync {
				n++
			}
		}
		return n
	}
	commitAt := func(seq uint64) []consensus.Action {
		m := &pbft.Commit{Era: 0, View: 0, Seq: seq, Digest: gcrypto.Hash{0xab}}
		return endorser.OnEnvelope(0, consensus.Seal(peer, m))
	}

	// A commit for the very next height is normal consensus traffic.
	if n := syncReqs(commitAt(h + 1)); n != 0 {
		t.Fatalf("commit for next height spawned %d sync requests", n)
	}
	// A commit beyond head+1 reveals the gap: exactly one pull.
	if n := syncReqs(commitAt(h + 3)); n != 1 {
		t.Fatalf("lagging commit spawned %d sync requests, want 1", n)
	}
	if got := endorser.SyncStats().LagPulls; got != 1 {
		t.Fatalf("LagPulls = %d after one lag pull, want 1", got)
	}
	// While that pull is in flight, an equal-or-lower commit is quiet.
	if n := syncReqs(commitAt(h + 3)); n != 0 {
		t.Fatalf("duplicate lagging commit spawned %d requests", n)
	}
	// The head moving past the target re-arms the sync (covers a lost
	// response: the next commit re-requests).
	if n := syncReqs(commitAt(h + 6)); n != 1 {
		t.Fatalf("higher lagging commit spawned %d requests, want 1", n)
	}
	if got := endorser.SyncStats().LagPulls; got != 2 {
		t.Fatalf("LagPulls = %d after two lag pulls, want 2", got)
	}
}

// TestSyncResponseRejectsUncertifiedBlocks: a sync response whose
// blocks lack commit certificates must not advance the observer chain.
func TestSyncResponseRejectsUncertifiedBlocks(t *testing.T) {
	c := grownCluster(t, 4)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key
	chain0 := c.Node(0).App.Chain()

	// Strip certificates from copies of the real blocks.
	var resp core.SyncResponse
	for h := uint64(1); h <= chain0.Height(); h++ {
		b, err := chain0.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		naked := *b
		naked.Cert = nil
		resp.Blocks = append(resp.Blocks, naked)
	}
	env := consensus.Seal(endorserKey, &resp)
	observer.OnEnvelope(0, env)
	if got := c.Node(4).App.Chain().Height(); got != 0 {
		t.Fatalf("observer accepted %d uncertified blocks", got)
	}

	// The genuine certified blocks DO advance it.
	var good core.SyncResponse
	for h := uint64(1); h <= chain0.Height(); h++ {
		b, _ := chain0.BlockAt(h)
		good.Blocks = append(good.Blocks, *b)
	}
	observer.OnEnvelope(0, consensus.Seal(endorserKey, &good))
	if got := c.Node(4).App.Chain().Height(); got != chain0.Height() {
		t.Fatalf("observer height %d after certified sync, want %d", got, chain0.Height())
	}
}

// TestSyncAppliedBlocksReachRuntime: every block the sync path applies
// must also be surfaced as an Applied CommitBlock action — that is how
// the runtime persists it to the block log. A silent in-engine apply
// would commit blocks that vanish at the next restart.
func TestSyncAppliedBlocksReachRuntime(t *testing.T) {
	c := grownCluster(t, 4)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key
	chain0 := c.Node(0).App.Chain()

	var resp core.SyncResponse
	for h := uint64(1); h <= chain0.Height(); h++ {
		b, _ := chain0.BlockAt(h)
		resp.Blocks = append(resp.Blocks, *b)
	}
	acts := observer.OnEnvelope(0, consensus.Seal(endorserKey, &resp))
	var applied []uint64
	for _, a := range acts {
		if cb, ok := a.(consensus.CommitBlock); ok {
			if !cb.Applied {
				t.Fatal("sync-path CommitBlock must carry Applied (the engine already applied it)")
			}
			applied = append(applied, cb.Block.Header.Height)
		}
	}
	if uint64(len(applied)) != chain0.Height() {
		t.Fatalf("surfaced %d applied blocks, want %d", len(applied), chain0.Height())
	}
	for i, h := range applied {
		if h != uint64(i+1) {
			t.Fatalf("applied heights out of order: %v", applied)
		}
	}
}

// TestSyncResponseIgnoresGappyBlocks: responses must apply only a
// contiguous prefix starting at the observer's next height.
func TestSyncResponseIgnoresGappyBlocks(t *testing.T) {
	c := grownCluster(t, 6)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key
	chain0 := c.Node(0).App.Chain()

	// Offer blocks 3..6 to a node at height 0: nothing applies.
	var resp core.SyncResponse
	for h := uint64(3); h <= 6; h++ {
		b, _ := chain0.BlockAt(h)
		resp.Blocks = append(resp.Blocks, *b)
	}
	observer.OnEnvelope(0, consensus.Seal(endorserKey, &resp))
	if got := c.Node(4).App.Chain().Height(); got != 0 {
		t.Fatalf("gappy sync applied %d blocks", got)
	}
}
