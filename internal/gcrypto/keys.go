// Package gcrypto provides the cryptographic substrate of the
// blockchain: ed25519 identities, chain addresses, message signing, and
// SHA-256 Merkle trees with inclusion proofs.
//
// The paper's threat model (Section III-A) assumes public-key
// cryptography that "cannot be broken in a certain period" and that
// adversaries "cannot forge messages or tamper with the messages sent
// by others" — i.e. unforgeable signatures, which ed25519 supplies.
package gcrypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// AddressSize is the byte length of a chain address (truncated SHA-256
// of the public key, in the style of most account-model chains).
const AddressSize = 20

// Address identifies an account (an IoT device, endorser or client) on
// the chain. It doubles as the CSC address component.
type Address [AddressSize]byte

// Errors returned by key and signature operations.
var (
	ErrBadSignature  = errors.New("gcrypto: signature verification failed")
	ErrBadPublicKey  = errors.New("gcrypto: malformed public key")
	ErrBadAddressHex = errors.New("gcrypto: malformed address hex")
)

// String renders the address as lowercase hex.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// Short returns the first four bytes of the address in hex, for logs.
func (a Address) Short() string { return hex.EncodeToString(a[:4]) }

// IsZero reports whether the address is all zeroes (no account).
func (a Address) IsZero() bool { return a == Address{} }

// Bytes returns a copy of the address bytes.
func (a Address) Bytes() []byte {
	b := make([]byte, AddressSize)
	copy(b, a[:])
	return b
}

// Less imposes a total order on addresses (used for deterministic
// committee ordering).
func (a Address) Less(b Address) bool { return bytes.Compare(a[:], b[:]) < 0 }

// ParseAddress decodes the hex form produced by String.
func ParseAddress(s string) (Address, error) {
	var a Address
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != AddressSize {
		return a, ErrBadAddressHex
	}
	copy(a[:], b)
	return a, nil
}

// PublicKey is an ed25519 verification key.
type PublicKey = ed25519.PublicKey

// KeyPair is a node identity: an ed25519 signing key plus its derived
// chain address.
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	addr Address
}

// GenerateKeyPair creates a new identity from the given entropy source
// (crypto/rand.Reader in production, a seeded reader in simulations so
// experiments are reproducible).
func GenerateKeyPair(rand io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("gcrypto: generate key: %w", err)
	}
	return &KeyPair{pub: pub, priv: priv, addr: AddressOf(pub)}, nil
}

// KeyPairFromSeed derives a deterministic identity from a 32-byte seed.
func KeyPairFromSeed(seed []byte) (*KeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("gcrypto: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	return &KeyPair{pub: pub, priv: priv, addr: AddressOf(pub)}, nil
}

// DeterministicKeyPair derives the identity of simulated node i; it is
// the standard way experiments mint identities.
func DeterministicKeyPair(i int) *KeyPair {
	var seed [32]byte
	h := sha256.Sum256([]byte(fmt.Sprintf("gpbft-sim-node-%d", i)))
	copy(seed[:], h[:])
	kp, err := KeyPairFromSeed(seed[:])
	if err != nil {
		panic(err) // unreachable: seed size is fixed
	}
	return kp
}

// Public returns the verification key.
func (k *KeyPair) Public() PublicKey { return k.pub }

// Address returns the derived chain address.
func (k *KeyPair) Address() Address { return k.addr }

// Sign signs msg and returns the 64-byte ed25519 signature.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.priv, msg)
}

// AddressOf derives the chain address of a public key.
func AddressOf(pub PublicKey) Address {
	var a Address
	h := sha256.Sum256(pub)
	copy(a[:], h[:AddressSize])
	return a
}

// Verify checks sig over msg against pub, also confirming that pub
// hashes to addr (binding signature, key and account).
func Verify(pub PublicKey, addr Address, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return ErrBadPublicKey
	}
	if AddressOf(pub) != addr {
		return fmt.Errorf("gcrypto: public key does not match address %s", addr.Short())
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// HashBytes digests b.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// HashConcat digests the concatenation of the given byte slices.
func HashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the first four bytes in hex.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == Hash{} }

// Bytes returns a copy of the digest.
func (h Hash) Bytes() []byte {
	b := make([]byte, len(h))
	copy(b, h[:])
	return b
}
