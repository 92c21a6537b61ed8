package blockserver

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/obs"
)

// TestStoreDegradedReadWireBytes pins the Section VII degraded read: with
// one data-bearing server emptied, every stripe keeps the nine prefixes
// that arrived and fetches only the missing block's K units from a
// replacement block, so the read moves no more bytes than a healthy one
// and a warm read reuses parked connections instead of dialing.
func TestStoreDegradedReadWireBytes(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 1024
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const stripes = 16
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(41)).Read(data)
	if _, err := store.WriteFile(ctx, "wire", data); err != nil {
		t.Fatal(err)
	}
	// Server 0 rejoins empty: it answers, but holds none of its blocks.
	if err := store.Pool().WithClient(ctx, addrs[0], func(c *Client) error {
		for st := 0; st < stripes; st++ {
			if err := c.Delete(ctx, BlockName("wire", st, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for read := 1; read <= 2; read++ {
		got, stats, err := store.ReadFile(ctx, "wire", size)
		if err != nil {
			t.Fatalf("read %d: %v", read, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d returned different bytes", read)
		}
		if stats.StripesFallback != stripes {
			t.Errorf("read %d: StripesFallback = %d, want %d", read, stats.StripesFallback, stripes)
		}
		if limit := int64(float64(size) * 1.01); stats.BytesFetched > limit {
			t.Errorf("read %d fetched %d bytes for a %d-byte file (%.3f B/B), want <= 1.01", read, stats.BytesFetched, size, float64(stats.BytesFetched)/float64(size))
		}
		if read == 2 && len(stats.Dials) != 0 {
			t.Errorf("warm degraded read dialed fresh connections: %v, want none", stats.Dials)
		}
	}
}

// TestStoreDegradedReadAnyKLastResort pins why the whole-block any-k race
// stays: when fewer than k blocks answer within the hedge, no Section VII
// plan exists, and the stripe must still be served — byte-identical — by
// racing whole blocks from every server while the stragglers stay alive.
func TestStoreDegradedReadAnyKLastResort(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 64
	const stripes = 3
	size := (stripes-1)*code.K()*blockSize + 19
	data := make([]byte, size)
	rand.New(rand.NewSource(43)).Read(data)

	_, addrs, injectors := startFaultServers(t, code, 12)
	const hedge = 100 * time.Millisecond
	store, err := NewStore(code, addrs, blockSize,
		WithClientOptions(fastOpts()), WithHedgeDelay(hedge))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := store.WriteFile(ctx, "lastresort", data); err != nil {
		t.Fatal(err)
	}

	// Seven of the ten data-bearing servers straggle past the hedge: the
	// three prefixes that arrive plus the two spares make five blocks, one
	// short of k, so only the any-k race can finish the stripe.
	base := runtime.NumGoroutine()
	for i := 0; i < 7; i++ {
		injectors[i].SetDefault(faultnet.Policy{DelayWrite: 3 * hedge})
	}
	got, stats, err := store.ReadFile(ctx, "lastresort", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("last-resort read returned different bytes")
	}
	if stats.StripesFallback != stripes {
		t.Errorf("StripesFallback = %d, want %d", stats.StripesFallback, stripes)
	}
	anyk := 0
	for _, s := range obs.DefaultTracer().Spans(stats.TraceID) {
		if s.Name == "fetch" && s.Attr("mode") == "anyk" {
			anyk++
		}
	}
	if anyk != stripes {
		t.Errorf("%d fetch spans with mode=anyk, want one per stripe (%d)", anyk, stripes)
	}

	for i := 0; i < 7; i++ {
		injectors[i].SetDefault(faultnet.Policy{})
	}
	store.Close()
	waitGoroutines(t, base)
}
