package stream

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits for the goroutine count to come back to base —
// prefetch workers and the dispatcher must not outlive their reader.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPrefetchRoundTripVariousSizes(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 16
	stripeData := code.K() * blockSize
	rng := rand.New(rand.NewSource(2))
	base := runtime.NumGoroutine()
	for _, size := range []int{1, blockSize - 1, stripeData, stripeData + 1, 9*stripeData - 7} {
		data := make([]byte, size)
		rng.Read(data)
		sink := writeStream(t, code, blockSize, data, size)
		for _, depth := range []int{1, 3, 0 /* default */} {
			got, err := readAll(t, code, blockSize, size, sink, depth)
			if err != nil {
				t.Fatalf("size %d depth %d: %v", size, depth, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("size %d depth %d: round trip mismatch", size, depth)
			}
		}
	}
	waitGoroutines(t, base)
}

func TestPrefetchReaderToleratesMissingBlocks(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripeData := code.K() * blockSize
	size := 4 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(data)
	sink := writeStream(t, code, blockSize, data, size)
	// Drop a different set of n-k blocks from every stripe.
	for st := 0; st < 4; st++ {
		for i := 0; i < code.N()-code.K(); i++ {
			sink.Drop(st, (st+i*3)%code.N())
		}
	}
	got, err := readAll(t, code, blockSize, size, sink, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded prefetch round trip mismatch")
	}
}

// TestPrefetchReaderEarlyClose stops consuming mid-stream: Close must
// reclaim every in-flight stripe, leave no goroutines, and fail later
// reads.
func TestPrefetchReaderEarlyClose(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 16
	stripeData := code.K() * blockSize
	size := 16 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(data)
	sink := writeStream(t, code, blockSize, data, size)
	base := runtime.NumGoroutine()
	r, err := NewPrefetchReader(code, blockSize, int64(size), sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, stripeData/2)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := r.Read(buf); err == nil {
		t.Fatal("read after Close succeeded")
	}
	waitGoroutines(t, base)
}

// failingSource fails the stripes in bad and serves the rest from good.
type failingSource struct {
	good StripeSource
	bad  func(stripe int) bool
}

func (f *failingSource) ReadStripeInto(stripe int, dst []byte) error {
	if f.bad(stripe) {
		return fmt.Errorf("stripe %d unavailable", stripe)
	}
	return f.good.ReadStripeInto(stripe, dst)
}

func TestPrefetchReaderPropagatesSourceError(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripeData := code.K() * blockSize
	size := 3 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(data)
	sink := writeStream(t, code, blockSize, data, size)
	base := runtime.NumGoroutine()
	src := &failingSource{good: sink, bad: func(st int) bool { return st > 0 }}
	r, err := NewPrefetchReader(code, blockSize, int64(size), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err == nil {
		t.Fatal("read past a failing stripe succeeded")
	}
	if len(got) > stripeData {
		t.Fatalf("read %d bytes past the failure, want at most one stripe", len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestPrefetchReaderErrorIsSticky: when the middle stripe of three fails,
// every Read after the failure returns the same error — the reader never
// moves on to stripe 2 and hands its bytes out as if they followed
// stripe 0.
func TestPrefetchReaderErrorIsSticky(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripeData := code.K() * blockSize
	size := 3 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(6)).Read(data)
	sink := writeStream(t, code, blockSize, data, size)
	base := runtime.NumGoroutine()
	src := &failingSource{good: sink, bad: func(st int) bool { return st == 1 }}
	r, err := NewPrefetchReader(code, blockSize, int64(size), src, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, stripeData)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("stripe 0: %v", err)
	}
	if !bytes.Equal(buf, data[:stripeData]) {
		t.Fatal("stripe 0 mismatch")
	}
	n, first := r.Read(buf)
	if n != 0 || first == nil {
		t.Fatalf("read of the failed stripe = (%d, %v), want an error", n, first)
	}
	for i := 0; i < 3; i++ {
		if n, err := r.Read(buf); n != 0 || err != first {
			t.Fatalf("read %d after the failure = (%d, %v), want (0, %v)", i, n, err, first)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

func TestPrefetchReaderValidation(t *testing.T) {
	code := mustCode(t)
	sink := NewMemSink(code, code.BlockAlign())
	if _, err := NewPrefetchReader(code, 7, 100, sink, 1); err == nil {
		t.Error("misaligned block size accepted")
	}
	if _, err := NewPrefetchReader(code, code.BlockAlign(), -1, sink, 1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewPrefetchReader(code, code.BlockAlign(), 100, nil, 1); err == nil {
		t.Error("nil source accepted")
	}
}
