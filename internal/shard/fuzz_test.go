package shard

import (
	"bytes"
	"testing"

	"gpbft/internal/gcrypto"
)

// The shard payloads ride inside transactions any client can submit,
// so their decoders parse attacker-chosen bytes. Each target checks
// that decoding never panics and that an accepted payload re-encodes
// to exactly its input: two replicas must never hold different bytes
// (and so different tx IDs) for what decodes as one payload.

func fuzzReceipt() Receipt {
	return Receipt{
		ID:         gcrypto.HashBytes([]byte("lock")),
		Source:     "wecnv",
		Dest:       "wecny",
		Recipient:  gcrypto.DeterministicKeyPair(7).Address(),
		Amount:     42,
		LockHeight: 3,
	}
}

func FuzzDecodeTransfer(f *testing.F) {
	f.Add(EncodeTransfer(&Transfer{Source: "wecnv", Dest: "wecny", Recipient: gcrypto.DeterministicKeyPair(7).Address(), Amount: 42}))
	f.Add(EncodeTransfer(&Transfer{Source: "wecnv", Dest: "wecnv"})) // fails Validate
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTransfer(data)
		if err != nil {
			return
		}
		if again := EncodeTransfer(tr); !bytes.Equal(again, data) {
			t.Fatalf("accepted transfer is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}

func FuzzDecodeReceipt(f *testing.F) {
	rc := fuzzReceipt()
	f.Add(EncodeReceipt(&rc))
	rc.LockHeight = 0 // fails Validate
	f.Add(EncodeReceipt(&rc))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := DecodeReceipt(data)
		if err != nil {
			return
		}
		if again := EncodeReceipt(rc); !bytes.Equal(again, data) {
			t.Fatalf("accepted receipt is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}

func FuzzDecodeCheckpoint(f *testing.F) {
	root := gcrypto.HashBytes([]byte("head"))
	f.Add(EncodeCheckpoint(&RegionCheckpoint{Region: "wecnv", Era: 1, Height: 5, Root: root}))
	f.Add(EncodeCheckpoint(&RegionCheckpoint{Region: "wecnv", Era: 1, Height: 5, Root: root, Receipts: []Receipt{fuzzReceipt()}}))
	f.Add(EncodeCheckpoint(&RegionCheckpoint{Region: "wecnv", Era: 1, Height: 2, Root: root, Receipts: []Receipt{fuzzReceipt()}})) // receipt above height
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if again := EncodeCheckpoint(cp); !bytes.Equal(again, data) {
			t.Fatalf("accepted checkpoint is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}
