package pbft_test

import (
	"errors"
	"testing"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// relayedRequest returns the request envelope an engine broadcast in
// acts, or nil.
func relayedRequest(acts []consensus.Action) *consensus.Envelope {
	for _, a := range acts {
		if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindRequest {
			return bc.Env
		}
	}
	return nil
}

// TestClientRequestRelayedUnsealed: the entry replica relays a client
// transaction to the committee in an unsealed envelope attributed to
// itself, and a member receiving that relay pools the transaction and,
// as primary, proposes it.
func TestClientRequestRelayedUnsealed(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	entry := newUnitRig(t, (prim+1)%4)
	client := gcrypto.DeterministicKeyPair(2000)
	tx := clientTx(1, 1)

	relay := relayedRequest(entry.eng.OnEnvelope(0, consensus.Seal(client, &pbft.Request{Tx: *tx})))
	if relay == nil {
		t.Fatal("entry replica did not relay the client request")
	}
	if len(relay.Signature) != 0 {
		t.Fatalf("relayed request carries a %d-byte seal", len(relay.Signature))
	}
	if relay.From != entry.keys[entry.self].Address() {
		t.Fatal("relayed request is not attributed to the entry replica")
	}
	if !errors.Is(consensus.Open(relay, consensus.KindRequest, &pbft.Request{}), consensus.ErrEnvelopeSig) {
		t.Fatal("Open accepted an unsealed envelope")
	}

	primary := newUnitRig(t, prim)
	acts := primary.eng.OnEnvelope(0, relay)
	if primary.app.PendingTxs() != 1 {
		t.Fatalf("primary pooled %d transactions from the relay, want 1", primary.app.PendingTxs())
	}
	if !hasKind(acts, consensus.KindPrePrepare) {
		t.Fatal("primary did not propose the relayed transaction")
	}
	if relayedRequest(acts) != nil {
		t.Fatal("a relay from a member must be terminal")
	}
}

// TestTamperedTxInUnsealedRelayRejected: nothing but the transaction's
// own signature authenticates a relayed request, so a relay whose
// transaction was altered after signing is dropped: not pooled, not
// proposed, not relayed further.
func TestTamperedTxInUnsealedRelayRejected(t *testing.T) {
	r := newUnitRig(t, 0)
	primary := newUnitRig(t, r.primaryPos())
	member := r.keys[r.backupPos(-1)]

	tampered := clientTx(1, 1)
	tampered.Fee++
	acts := primary.eng.OnEnvelope(0, consensus.Unsealed(member, &pbft.Request{Tx: *tampered}))
	if n := primary.app.PendingTxs(); n != 0 {
		t.Fatalf("tampered transaction pooled (%d pending)", n)
	}
	if hasKind(acts, consensus.KindPrePrepare) || relayedRequest(acts) != nil {
		t.Fatal("tampered transaction was proposed or relayed")
	}

	// The same relay from a non-member (a direct client path) must not be
	// relayed onward either.
	outsider := gcrypto.DeterministicKeyPair(2001)
	if acts := primary.eng.OnEnvelope(0, consensus.Unsealed(outsider, &pbft.Request{Tx: *tampered})); len(acts) != 0 {
		t.Fatalf("tampered client request produced %d actions", len(acts))
	}

	// The untampered original still goes through.
	primary.eng.OnEnvelope(0, consensus.Unsealed(member, &pbft.Request{Tx: *clientTx(1, 1)}))
	if n := primary.app.PendingTxs(); n != 1 {
		t.Fatalf("genuine transaction not pooled (%d pending)", n)
	}
}
