package types

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

func signedTx(t testing.TB, i int) Transaction {
	t.Helper()
	kp := gcrypto.DeterministicKeyPair(1000 + i)
	tx := Transaction{
		Type:    TxNormal,
		Nonce:   uint64(i),
		Payload: []byte(fmt.Sprintf("payload %d", i)),
		Fee:     1,
		Geo: GeoInfo{
			Location:  geo.Point{Lng: 10, Lat: 20},
			Timestamp: time.Unix(1700000000+int64(i), 0),
		},
	}
	tx.Sign(kp)
	return tx
}

// assertTxEquivalent checks VerifyTxs and VerifyCached against the
// serial Verify oracle on every index.
func assertTxEquivalent(t *testing.T, txs []Transaction) {
	t.Helper()
	got := VerifyTxs(txs)
	if len(got) != len(txs) {
		t.Fatalf("VerifyTxs returned %d results for %d txs", len(got), len(txs))
	}
	for i := range txs {
		want := txs[i].Verify()
		if (got[i] == nil) != (want == nil) {
			t.Fatalf("index %d: batch=%v serial=%v", i, got[i], want)
		}
		if want != nil && got[i].Error() != want.Error() {
			t.Fatalf("index %d: batch error %q, serial error %q", i, got[i], want)
		}
		cached := txs[i].VerifyCached()
		if (cached == nil) != (want == nil) {
			t.Fatalf("index %d: cached=%v serial=%v", i, cached, want)
		}
	}
}

func TestVerifyTxsAllValid(t *testing.T) {
	txs := make([]Transaction, 16)
	for i := range txs {
		txs[i] = signedTx(t, i)
	}
	assertTxEquivalent(t, txs)
	// Second pass: now fully cached; results must not change.
	assertTxEquivalent(t, txs)
}

func TestVerifyTxsEmpty(t *testing.T) {
	if got := VerifyTxs(nil); len(got) != 0 {
		t.Fatalf("VerifyTxs(nil) = %v", got)
	}
}

// TestVerifyTxsBadEveryPosition plants one failure at each index in
// turn — cycling through signature, structural and nil-signature
// failures.
func TestVerifyTxsBadEveryPosition(t *testing.T) {
	const n = 8
	for bad := 0; bad < n; bad++ {
		txs := make([]Transaction, n)
		for i := range txs {
			txs[i] = signedTx(t, 100*bad+i)
		}
		switch bad % 3 {
		case 0:
			txs[bad].Signature = append([]byte(nil), txs[bad].Signature...)
			txs[bad].Signature[0] ^= 0xFF // signature failure
		case 1:
			txs[bad].Geo.Timestamp = time.Time{} // structural failure
		case 2:
			txs[bad].Signature = nil
		}
		assertTxEquivalent(t, txs)
	}
}

// TestVerifyCachedRejectsMutation confirms a cached accept cannot leak
// to a tampered transaction: the cache key covers the signature, and a
// content change moves the ID.
func TestVerifyCachedRejectsMutation(t *testing.T) {
	tx := signedTx(t, 1)
	if err := tx.VerifyCached(); err != nil {
		t.Fatalf("valid tx rejected: %v", err)
	}
	tampered := tx
	tampered.Nonce++ // new ID: cache miss, signature no longer matches
	if err := tampered.VerifyCached(); err == nil {
		t.Fatal("tampered content accepted from cache")
	}
	resigned := tx
	resigned.Signature = append([]byte(nil), tx.Signature...)
	resigned.Signature[10] ^= 0x01 // same ID, different signature bytes
	if err := resigned.VerifyCached(); err == nil {
		t.Fatal("tampered signature accepted from cache")
	}
}

// TestVerifyTxsConcurrent hammers the striped cache from many
// goroutines under -race.
func TestVerifyTxsConcurrent(t *testing.T) {
	txs := make([]Transaction, 32)
	for i := range txs {
		txs[i] = signedTx(t, 200+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for _, err := range VerifyTxs(txs) {
					if err != nil {
						t.Errorf("unexpected verify error: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := SigCacheStats()
	if hits == 0 {
		t.Errorf("expected cache hits, got hits=%d misses=%d", hits, misses)
	}
}

// TestSigCacheRotation fills stripes past their cap and confirms both
// correctness and that the cache stays bounded.
func TestSigCacheRotation(t *testing.T) {
	for i := 0; i < 3000; i++ {
		tx := signedTx(t, 5000+i)
		if err := tx.VerifyCached(); err != nil {
			t.Fatalf("tx %d rejected: %v", i, err)
		}
	}
	for i := range sigCache {
		s := &sigCache[i]
		s.mu.Lock()
		if len(s.cur) > sigCacheStripeCap || len(s.prev) > sigCacheStripeCap {
			t.Errorf("stripe %d over cap: cur=%d prev=%d", i, len(s.cur), len(s.prev))
		}
		s.mu.Unlock()
	}
}
