package pbft_test

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

type decodable interface {
	consensus.Payload
	UnmarshalCanonical(*codec.Reader) error
}

// FuzzDecodePBFTMessage hammers the body decoders of every message a
// peer can address to a PBFT engine; the first input byte picks the
// message type. Decoding must never panic, and any body a decoder
// accepts must re-encode to exactly the input bytes, so one message has
// one wire form (digests and double-sign evidence depend on that).
func FuzzDecodePBFTMessage(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	tx := clientTx(1, 1)
	b := types.NewBlock(types.BlockHeader{
		Height: 1, Seq: 1, Proposer: kp.Address(), Timestamp: epoch.Add(time.Second),
	}, []types.Transaction{*tx})
	ppEnv := consensus.Seal(kp, &pbft.PrePrepare{Seq: 1, Digest: b.Hash(), Block: *b})
	prepEnv := consensus.Seal(kp, &pbft.Prepare{Seq: 1, Digest: b.Hash()})
	vc := &pbft.ViewChange{Era: 1, NewView: 2, LastStable: 16, Prepared: []pbft.PreparedProof{{
		Seq: 17, View: 1, Digest: b.Hash(),
		PrePrepareEnv: consensus.EncodeEnvelope(ppEnv),
		PrepareEnvs:   [][]byte{consensus.EncodeEnvelope(prepEnv)},
	}}}
	seeds := []consensus.Payload{
		&pbft.Request{Tx: *tx},
		&pbft.PrePrepare{Era: 1, View: 2, Seq: 3, Digest: b.Hash(), Block: *b},
		&pbft.Prepare{Era: 1, View: 2, Seq: 3, Digest: b.Hash()},
		&pbft.Commit{Era: 1, View: 2, Seq: 3, Digest: b.Hash(), CertSig: kp.Sign([]byte("vote"))},
		&pbft.Checkpoint{Era: 1, Seq: 16, Digest: b.Hash()},
		vc,
		&pbft.NewView{Era: 1, View: 2,
			ViewChangeEnvs: [][]byte{consensus.EncodeEnvelope(consensus.Seal(kp, vc))},
			PrePrepares:    [][]byte{consensus.EncodeEnvelope(ppEnv)}},
	}
	for i, p := range seeds {
		f.Add(append([]byte{byte(i)}, codec.Encode(p)...))
	}
	f.Add([]byte{0x05, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0x06})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// One fresh value per message kind a peer can send a PBFT engine.
		msgs := []decodable{
			&pbft.Request{}, &pbft.PrePrepare{}, &pbft.Prepare{}, &pbft.Commit{},
			&pbft.Checkpoint{}, &pbft.ViewChange{}, &pbft.NewView{},
		}
		m := msgs[int(data[0])%len(msgs)]
		body := data[1:]
		r := codec.NewReader(body)
		if m.UnmarshalCanonical(r) != nil || r.Finish() != nil {
			return
		}
		if re := codec.Encode(m); !bytes.Equal(re, body) {
			t.Fatalf("%s accepted a non-canonical body:\n in: %x\nout: %x", m.Kind(), body, re)
		}
	})
}
