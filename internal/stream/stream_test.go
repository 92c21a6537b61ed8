package stream

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"carousel/internal/carousel"
)

func mustCode(t *testing.T) *carousel.Code {
	t.Helper()
	c, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// writeStream stores data in a MemSink through a Writer fed in chunks of
// the given size and returns the sink.
func writeStream(t *testing.T, code *carousel.Code, blockSize int, data []byte, chunk int) *MemSink {
	t.Helper()
	sink := NewMemSink(code, blockSize)
	w, err := NewWriter(code, blockSize, sink)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		wn, err := w.Write(data[off:min(off+chunk, len(data))])
		if err != nil {
			t.Fatal(err)
		}
		off += wn
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stripeData := code.K() * blockSize
	if want := (len(data) + stripeData - 1) / stripeData; sink.Stripes() != want || w.Stripes() != want {
		t.Fatalf("size %d: sink holds %d stripes, writer emitted %d, want %d", len(data), sink.Stripes(), w.Stripes(), want)
	}
	return sink
}

// readAll reads a whole stream through a PrefetchReader of the given depth.
func readAll(t *testing.T, code *carousel.Code, blockSize, size int, src StripeSource, depth int) ([]byte, error) {
	t.Helper()
	r, err := NewPrefetchReader(code, blockSize, int64(size), src, depth)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return io.ReadAll(r)
}

// TestRoundTripVariousSizes writes streams of awkward sizes in 13-byte
// chunks and reads each back at the default depth, the facade's
// StreamReader.
func TestRoundTripVariousSizes(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 16
	stripeData := code.K() * blockSize
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, blockSize - 1, stripeData, stripeData + 1, 3*stripeData - 7} {
		data := make([]byte, size)
		rng.Read(data)
		sink := writeStream(t, code, blockSize, data, 13)
		got, err := readAll(t, code, blockSize, size, sink, DefaultPrefetchDepth)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestReaderToleratesMissingBlocks(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripeData := code.K() * blockSize
	data := make([]byte, 2*stripeData)
	rand.New(rand.NewSource(2)).Read(data)
	sink := writeStream(t, code, blockSize, data, len(data))
	// Lose the maximum tolerable blocks in each stripe: every even block
	// from stripe 0, every odd block from stripe 1.
	for b := 0; b < code.N(); b++ {
		sink.Drop(b%2, b)
	}
	got, err := readAll(t, code, blockSize, len(data), sink, DefaultPrefetchDepth)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded stream read mismatch")
	}
	// One more loss makes a stripe unrecoverable.
	sink.Drop(0, 1)
	if _, err := readAll(t, code, blockSize, len(data), sink, DefaultPrefetchDepth); err == nil {
		t.Fatal("unrecoverable stripe did not error")
	}
}

func TestReaderValidation(t *testing.T) {
	code := mustCode(t)
	sink := NewMemSink(code, code.BlockAlign())
	if _, err := NewPrefetchReader(code, 3, 10, sink, DefaultPrefetchDepth); err == nil {
		t.Error("misaligned block size did not error")
	}
	if _, err := NewPrefetchReader(code, code.BlockAlign(), -1, sink, DefaultPrefetchDepth); err == nil {
		t.Error("negative size did not error")
	}
	if _, err := NewPrefetchReader(code, code.BlockAlign(), 10, nil, DefaultPrefetchDepth); err == nil {
		t.Error("nil source did not error")
	}
	// Zero-size stream reads EOF immediately.
	r, err := NewPrefetchReader(code, code.BlockAlign(), 0, sink, DefaultPrefetchDepth)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Read(make([]byte, 4)); err != io.EOF {
		t.Fatalf("zero-size read: %v, want EOF", err)
	}
}

func TestWriterValidation(t *testing.T) {
	code := mustCode(t)
	sink := NewMemSink(code, code.BlockAlign())
	if _, err := NewWriter(code, code.BlockAlign()+1, sink); err == nil {
		t.Error("misaligned block size did not error")
	}
	if _, err := NewWriter(code, 0, sink); err == nil {
		t.Error("zero block size did not error")
	}
	if _, err := NewWriter(code, code.BlockAlign(), nil); err == nil {
		t.Error("nil sink did not error")
	}
	w, err := NewWriter(code, code.BlockAlign(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if _, err := w.Write([]byte{1}); err == nil {
		t.Error("write after Close did not error")
	}
	if sink.Stripes() != 0 {
		t.Errorf("empty stream stored %d stripes", sink.Stripes())
	}
}

func TestMemSinkOutOfRange(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign()
	m := NewMemSink(code, blockSize)
	dst := make([]byte, code.K()*blockSize)
	if err := m.ReadStripeInto(0, dst); err == nil {
		t.Error("empty sink read did not error")
	}
	if err := m.WriteStripe(0, dst[1:]); err == nil {
		t.Error("short stripe write did not error")
	}
	m.Drop(5, 5) // out of range is a no-op
}
