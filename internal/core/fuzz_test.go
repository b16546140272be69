package core_test

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// FuzzDecodeCoreMessage hammers the era-announce and block-sync body
// decoders. Their first byte is the subtype the engine dispatches on
// (0 announce, 1..6 sync/head/snapshot request and response), so the
// fuzzer picks the decoder the same way. Decoding must never panic,
// and any body a decoder accepts must re-encode to exactly the input.
func FuzzDecodeCoreMessage(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	tx := &types.Transaction{Type: types.TxNormal, Nonce: 1, Payload: []byte("x"), Fee: 1}
	tx.Sign(kp)
	b := types.NewBlock(types.BlockHeader{
		Height: 1, Seq: 1, Proposer: kp.Address(), Timestamp: time.Unix(1, 0).UTC(),
	}, []types.Transaction{*tx})
	b.Cert = &types.Certificate{BlockHash: b.Hash(), Votes: []types.Vote{{Endorser: kp.Address(), Signature: kp.Sign([]byte("v"))}}}
	for _, p := range []consensus.Payload{
		&core.EraAnnounce{NewEra: 2, Height: 40},
		&core.SyncRequest{FromHeight: 7},
		&core.SyncResponse{Blocks: []types.Block{*b}},
		&core.HeadRequest{},
		&core.HeadResponse{Height: 40, SnapHeight: 32, SnapRoot: b.Hash()},
		&core.SnapshotRequest{Height: 32},
		&core.SnapshotResponse{Height: 32, Data: []byte("snapshot bytes")},
	} {
		f.Add(codec.Encode(p))
	}
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		var m interface {
			codec.Marshaler
			UnmarshalCanonical(*codec.Reader) error
		}
		switch body[0] {
		case 0:
			m = &core.EraAnnounce{}
		case 1:
			m = &core.SyncRequest{}
		case 2:
			m = &core.SyncResponse{}
		case 3:
			m = &core.HeadRequest{}
		case 4:
			m = &core.HeadResponse{}
		case 5:
			m = &core.SnapshotRequest{}
		case 6:
			m = &core.SnapshotResponse{}
		default:
			return
		}
		r := codec.NewReader(body)
		if m.UnmarshalCanonical(r) != nil || r.Finish() != nil {
			return
		}
		if re := codec.Encode(m); !bytes.Equal(re, body) {
			t.Fatalf("subtype %d accepted a non-canonical body:\n in: %x\nout: %x", body[0], body, re)
		}
	})
}
