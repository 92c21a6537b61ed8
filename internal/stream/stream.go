// Package stream is the io plumbing over whole stripes of a Carousel-coded
// file: a Writer that consumes an arbitrary byte stream and hands every
// k*blockSize bytes to a sink as one stripe, and a PrefetchReader that
// reassembles the stream from a source stripe by stripe. Neither encodes
// nor decodes; the backend behind the interfaces does — the block store's
// hedged stripe pipeline over TCP, or MemSink in memory. This is the shape
// of the paper's HDFS integration: files are stored as sequences of
// encoded stripes.
package stream

import (
	"errors"
	"fmt"

	"carousel/internal/carousel"
)

// StripeSink stores the stripes of a stream, in order. data is one
// stripe's original bytes, k*blockSize long with the final stripe's zero
// padding included; the sink must not retain it after the call returns.
type StripeSink interface {
	WriteStripe(stripe int, data []byte) error
}

// StripeSource serves the stripes of a stream: ReadStripeInto fills dst
// (k*blockSize bytes, padding included) with one stripe's original bytes.
// It may be called for several stripes concurrently.
type StripeSource interface {
	ReadStripeInto(stripe int, dst []byte) error
}

// checkBlockSize validates a stream's block size against the code.
func checkBlockSize(code *carousel.Code, blockSize int) error {
	if blockSize <= 0 || blockSize%code.BlockAlign() != 0 {
		return fmt.Errorf("stream: block size %d must be a positive multiple of %d", blockSize, code.BlockAlign())
	}
	return nil
}

// Writer cuts a byte stream into consecutive stripes. It implements
// io.WriteCloser; Close flushes the final, zero-padded stripe. The total
// number of bytes written must be recorded by the caller (e.g. in a
// manifest) to trim the padding on read.
type Writer struct {
	sink   StripeSink
	buf    []byte
	fill   int
	stripe int
	closed bool
}

// NewWriter returns a streaming writer. blockSize must be a positive
// multiple of code.BlockAlign().
func NewWriter(code *carousel.Code, blockSize int, sink StripeSink) (*Writer, error) {
	if err := checkBlockSize(code, blockSize); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, errors.New("stream: nil sink")
	}
	return &Writer{sink: sink, buf: make([]byte, code.K()*blockSize)}, nil
}

// Write buffers p, emitting a stripe whenever k*blockSize bytes are
// available.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("stream: write after Close")
	}
	written := 0
	for len(p) > 0 {
		n := copy(w.buf[w.fill:], p)
		w.fill += n
		written += n
		p = p[n:]
		if w.fill == len(w.buf) {
			if err := w.flush(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// flush hands the buffered stripe to the sink.
func (w *Writer) flush() error {
	if err := w.sink.WriteStripe(w.stripe, w.buf); err != nil {
		return fmt.Errorf("stream: writing stripe %d: %w", w.stripe, err)
	}
	w.stripe++
	w.fill = 0
	return nil
}

// Close pads and emits any buffered data. It is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.fill == 0 {
		return nil
	}
	clear(w.buf[w.fill:])
	return w.flush()
}

// Stripes returns the number of stripes emitted so far.
func (w *Writer) Stripes() int { return w.stripe }

// MemSink is the in-memory backend: a StripeSink that encodes every stripe
// into n blocks and a StripeSource that decodes them back with the
// Carousel parallel read, so up to n-k dropped blocks per stripe are
// tolerated. It is convenient for tests and small files.
type MemSink struct {
	code      *carousel.Code
	blockSize int
	stripes   [][][]byte
}

var (
	_ StripeSink   = (*MemSink)(nil)
	_ StripeSource = (*MemSink)(nil)
)

// NewMemSink returns an empty in-memory backend for stripes of
// k*blockSize bytes.
func NewMemSink(code *carousel.Code, blockSize int) *MemSink {
	return &MemSink{code: code, blockSize: blockSize}
}

// WriteStripe implements StripeSink: the stripe is encoded and its n
// blocks are kept.
func (m *MemSink) WriteStripe(stripe int, data []byte) error {
	k := m.code.K()
	if len(data) != k*m.blockSize {
		return fmt.Errorf("stream: stripe %d is %d bytes, want %d", stripe, len(data), k*m.blockSize)
	}
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = data[i*m.blockSize : (i+1)*m.blockSize]
	}
	blocks, err := m.code.Encode(shards)
	if err != nil {
		return err
	}
	for len(m.stripes) <= stripe {
		m.stripes = append(m.stripes, nil)
	}
	m.stripes[stripe] = blocks
	return nil
}

// ReadStripeInto implements StripeSource by decoding the stripe's
// surviving blocks into dst.
func (m *MemSink) ReadStripeInto(stripe int, dst []byte) error {
	if stripe < 0 || stripe >= len(m.stripes) {
		return fmt.Errorf("stream: stripe %d out of range [0,%d)", stripe, len(m.stripes))
	}
	return m.code.ParallelReadInto(m.stripes[stripe], dst)
}

// Drop marks a block unavailable, for failure injection.
func (m *MemSink) Drop(stripe, block int) {
	if stripe < len(m.stripes) && block < len(m.stripes[stripe]) {
		m.stripes[stripe][block] = nil
	}
}

// Stripes returns the number of stored stripes.
func (m *MemSink) Stripes() int { return len(m.stripes) }
