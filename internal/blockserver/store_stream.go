package blockserver

import (
	"context"
	"fmt"
	"sync"

	"carousel/internal/stream"
)

// Sink returns a stream.StripeSink that encodes each stripe of the named
// file and uploads its n blocks in parallel — the same stripe write path
// WriteFile uses, over the same pooled connections, under the same block
// names, so ReadFile and Repair find the blocks where they expect them.
func (s *Store) Sink(ctx context.Context, name string) stream.StripeSink {
	return &storeSink{s: s, ctx: ctx, name: name}
}

type storeSink struct {
	s    *Store
	ctx  context.Context
	name string
}

func (k *storeSink) WriteStripe(stripe int, data []byte) error {
	if err := k.s.checkStripeLen(stripe, data); err != nil {
		return err
	}
	err := k.s.writeStripe(k.ctx, k.name, stripe, data)
	// A streaming write mutates the file one stripe at a time, so every
	// stripe, landed or not, bumps the file's cache generation: a stripe
	// cached before or during its upload is never served after it.
	if k.s.cache != nil {
		k.s.cache.Invalidate(k.name)
	}
	return err
}

// Source returns a stream.StripeSource that reads each stripe of the named
// file through the store's stripe read path — the stripe cache when one is
// configured, then the hedged p-source parallel read with its Section VII
// degraded read — so a PrefetchReader on top moves the same bytes as ReadFile
// and degrades per stripe the same way. Stage spans are recorded only
// when ctx is already traced.
func (s *Store) Source(ctx context.Context, name string) stream.StripeSource {
	return &storeSource{s: s, ctx: ctx, name: name, stats: &ReadStats{mu: new(sync.Mutex)}}
}

type storeSource struct {
	s     *Store
	ctx   context.Context
	name  string
	stats *ReadStats // accumulates over every stripe the source serves
}

func (src *storeSource) ReadStripeInto(stripe int, dst []byte) error {
	if err := src.s.checkStripeLen(stripe, dst); err != nil {
		return err
	}
	return src.s.readStripeCached(src.ctx, src.name, stripe, dst, src.stats)
}

// checkStripeLen rejects a stream whose stripe width is not the store's
// k*blockSize, as from a Writer or PrefetchReader built with another
// block size.
func (s *Store) checkStripeLen(stripe int, b []byte) error {
	if want := s.code.K() * s.blockSize; len(b) != want {
		return fmt.Errorf("blockserver: stripe %d is %d bytes, want %d", stripe, len(b), want)
	}
	return nil
}
