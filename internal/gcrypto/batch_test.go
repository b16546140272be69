package gcrypto

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// batchFixture builds n signature checks, all valid.
func batchFixture(t testing.TB, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		kp := DeterministicKeyPair(i + 1)
		msg := []byte(fmt.Sprintf("batch message %d", i))
		items[i] = BatchItem{Pub: kp.Public(), Addr: kp.Address(), Msg: msg, Sig: kp.Sign(msg)}
	}
	return items
}

// corrupt returns a copy of items with index i's signature flipped.
func corrupt(items []BatchItem, i int) []BatchItem {
	out := make([]BatchItem, len(items))
	copy(out, items)
	sig := append([]byte(nil), out[i].Sig...)
	sig[0] ^= 0xFF
	out[i].Sig = sig
	return out
}

// assertEquivalent checks VerifyBatch against the serial oracle,
// element for element.
func assertEquivalent(t *testing.T, items []BatchItem) {
	t.Helper()
	got := VerifyBatch(items)
	if len(got) != len(items) {
		t.Fatalf("VerifyBatch returned %d results for %d items", len(got), len(items))
	}
	for i := range items {
		want := Verify(items[i].Pub, items[i].Addr, items[i].Msg, items[i].Sig)
		if (got[i] == nil) != (want == nil) {
			t.Fatalf("index %d: batch=%v serial=%v", i, got[i], want)
		}
		if want != nil && got[i].Error() != want.Error() {
			t.Fatalf("index %d: batch error %q, serial error %q", i, got[i], want)
		}
	}
}

func TestVerifyBatchAllValid(t *testing.T) {
	assertEquivalent(t, batchFixture(t, 32))
}

func TestVerifyBatchAllInvalid(t *testing.T) {
	items := batchFixture(t, 16)
	for i := range items {
		items = corrupt(items, i)
	}
	assertEquivalent(t, items)
	for i, err := range VerifyBatch(items) {
		if !errors.Is(err, ErrBadSignature) {
			t.Fatalf("index %d: want ErrBadSignature, got %v", i, err)
		}
	}
}

// TestVerifyBatchSingleBadEveryPosition plants one bad signature at
// every index in turn and checks only that index is rejected.
func TestVerifyBatchSingleBadEveryPosition(t *testing.T) {
	const n = 12
	base := batchFixture(t, n)
	for bad := 0; bad < n; bad++ {
		items := corrupt(base, bad)
		errs := VerifyBatch(items)
		for i, err := range errs {
			if (err != nil) != (i == bad) {
				t.Fatalf("bad=%d index=%d err=%v", bad, i, err)
			}
		}
		if idx, err := FirstBatchError(errs); idx != bad || err == nil {
			t.Fatalf("FirstBatchError=(%d,%v), want (%d,non-nil)", idx, err, bad)
		}
	}
}

func TestVerifyBatchEmpty(t *testing.T) {
	if got := VerifyBatch(nil); len(got) != 0 {
		t.Fatalf("VerifyBatch(nil) = %v", got)
	}
	if idx, err := FirstBatchError(nil); idx != -1 || err != nil {
		t.Fatalf("FirstBatchError(nil) = (%d, %v)", idx, err)
	}
}

func TestVerifyBatchSingle(t *testing.T) {
	assertEquivalent(t, batchFixture(t, 1))
	assertEquivalent(t, corrupt(batchFixture(t, 1), 0))
	// Below minParallelBatch the batch runs inline on the caller.
	assertEquivalent(t, corrupt(batchFixture(t, minParallelBatch-1), 1))
}

// TestVerifyBatchLargerThanPool exercises the work-stealing path with
// far more items than pool workers.
func TestVerifyBatchLargerThanPool(t *testing.T) {
	n := 8*runtime.GOMAXPROCS(0) + 7
	items := batchFixture(t, n)
	items = corrupt(items, 0)
	items = corrupt(items, n/2)
	items = corrupt(items, n-1)
	assertEquivalent(t, items)
}

// TestVerifyBatchMixedFailures covers structurally bad items (short
// pubkey, wrong address) alongside signature failures.
func TestVerifyBatchMixedFailures(t *testing.T) {
	items := batchFixture(t, 8)
	items[1].Pub = items[1].Pub[:5] // bad key size
	items[3].Addr = Address{}       // address/key mismatch
	items[5].Sig = nil              // empty signature
	items = corrupt(items, 6)       // bad signature bytes
	assertEquivalent(t, items)
}

// TestVerifyBatchConcurrentCallers hammers VerifyBatch from many
// goroutines at once (the pool is shared) under -race.
func TestVerifyBatchConcurrentCallers(t *testing.T) {
	base := batchFixture(t, 24)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			items := corrupt(base, g%len(base))
			for rep := 0; rep < 5; rep++ {
				errs := VerifyBatch(items)
				for i, err := range errs {
					if (err != nil) != (i == g%len(base)) {
						t.Errorf("goroutine %d index %d: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkVerifyBatch(b *testing.B) {
	items := batchFixture(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VerifyBatch(items)
	}
}

func BenchmarkVerifySerialLoop(b *testing.B) {
	items := batchFixture(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range items {
			Verify(items[j].Pub, items[j].Addr, items[j].Msg, items[j].Sig)
		}
	}
}
