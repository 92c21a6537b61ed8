package blockserver

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"carousel/internal/carousel"
	"carousel/internal/obs"
	"carousel/internal/stream"
)

// TestStoreStreamRoundTrip stacks the stream adapters on a live TCP
// cluster: a stream.Writer uploads through Store.Sink, a PrefetchReader
// pulls the stripes back through Store.Source over the same pooled
// connections, and after one server dies every stripe still reassembles
// through the store's any-k fallback.
func TestStoreStreamRoundTrip(t *testing.T) {
	code := mustCode(t)
	srvs, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	stripeData := code.K() * blockSize
	size := 6*stripeData - 11
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)

	w, err := stream.NewWriter(code, blockSize, store.Sink(ctx, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	r, err := stream.NewPrefetchReader(code, blockSize, int64(size), store.Source(ctx, "f"), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed round trip over TCP mismatch")
	}
	waitGoroutines(t, base)

	// Degraded: kill one server; every stripe falls back to decoding from
	// the fastest k survivors.
	srvs[2].Close()
	r, err = stream.NewPrefetchReader(code, blockSize, int64(size), store.Source(ctx, "f"), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded streamed round trip mismatch")
	}
}

// streamRead reads size bytes of file f through a PrefetchReader over
// Store.Source(ctx).
func streamRead(t *testing.T, ctx context.Context, store *Store, code *carousel.Code, blockSize, size int) []byte {
	t.Helper()
	r, err := stream.NewPrefetchReader(code, blockSize, int64(size), store.Source(ctx, "f"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStoreStreamWireBytes: a healthy streamed read moves what ReadFile
// moves — the original-data prefixes of the p data-bearing blocks, about
// the payload itself — not all n whole blocks of every stripe.
func TestStoreStreamWireBytes(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 4 * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(8)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	tx0 := srvBytesTx.Value()
	if got, _, err := store.ReadFile(ctx, "f", size); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile: %v", err)
	}
	tx1 := srvBytesTx.Value()
	if got := streamRead(t, ctx, store, code, blockSize, size); !bytes.Equal(got, data) {
		t.Fatal("streamed read mismatch")
	}
	tx2 := srvBytesTx.Value()

	fileBytes, streamBytes := tx1-tx0, tx2-tx1
	t.Logf("payload %d B: ReadFile sent %d B, streamed read sent %d B", size, fileBytes, streamBytes)
	if limit := int64(float64(size) * 1.05); streamBytes > limit {
		t.Errorf("streamed read sent %d server bytes for a %d-byte payload, want at most %d", streamBytes, size, limit)
	}
	if streamBytes > fileBytes*105/100 {
		t.Errorf("streamed read sent %d server bytes, ReadFile %d", streamBytes, fileBytes)
	}
}

// TestStoreStreamTracing: a streamed read under an untraced context
// records no spans at all, while one under a traced context records its
// stripe stages under the caller's span.
func TestStoreStreamTracing(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 3*code.K()*blockSize - 5
	data := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	// Untraced: bracket the read with two marker spans; span IDs are
	// sequential per tracer, so any span the read (or a server serving it)
	// started would carry an ID between the markers.
	marker := func() uint64 {
		_, sp := obs.StartSpan(context.Background(), "test.marker")
		sp.End()
		return sp.ID()
	}
	lo := marker()
	if got := streamRead(t, ctx, store, code, blockSize, size); !bytes.Equal(got, data) {
		t.Fatal("untraced streamed read mismatch")
	}
	hi := marker()
	for _, r := range obs.DefaultTracer().Recent(0) {
		if r.ID > lo && r.ID < hi {
			t.Errorf("untraced streamed read recorded span %q", r.Name)
		}
	}

	// Traced: the stage spans join the caller's trace under its span.
	tr := obs.NewTracer(4096)
	tctx, root := tr.Start(ctx, "caller")
	if got := streamRead(t, tctx, store, code, blockSize, size); !bytes.Equal(got, data) {
		t.Fatal("traced streamed read mismatch")
	}
	root.End()
	stripes := 0
	for _, r := range tr.Spans(root.TraceID()) {
		if r.Name == "stripe" {
			stripes++
			if r.Parent != root.ID() {
				t.Errorf("stripe span parented by %d, want the caller's span %d", r.Parent, root.ID())
			}
		}
	}
	if want := 3; stripes != want {
		t.Errorf("traced streamed read recorded %d stripe spans under the caller, want %d", stripes, want)
	}
}
