// Streaming writes a multi-stripe stream through the io.Writer interface
// into an in-memory backend that encodes each stripe, loses the maximum
// tolerable number of blocks in every stripe, and reads the stream back
// through io.Reader — the shape of storing a large file as a sequence of
// Carousel stripes. A BlockStore's Sink and Source slot in the same way.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"

	"carousel"
)

func main() {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		log.Fatal(err)
	}
	blockSize := 64 * code.BlockAlign()
	stripeData := code.K() * blockSize

	// A stream of ~2.5 stripes, written in odd-sized chunks.
	data := make([]byte, 2*stripeData+stripeData/2)
	rand.New(rand.NewSource(3)).Read(data)

	sink := carousel.NewMemSink(code, blockSize)
	w, err := carousel.NewStreamWriter(code, blockSize, sink)
	if err != nil {
		log.Fatal(err)
	}
	for off := 0; off < len(data); off += 1000 {
		end := off + 1000
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes as %d stripes of %d blocks (%d B each)\n",
		len(data), sink.Stripes(), code.N(), blockSize)

	// Knock out n-k = 6 blocks in every stripe, a different set each time.
	for s := 0; s < sink.Stripes(); s++ {
		for j := 0; j < 6; j++ {
			sink.Drop(s, (s+2*j)%code.N())
		}
		fmt.Printf("stripe %d: dropped 6 of %d blocks\n", s, code.N())
	}

	r, err := carousel.NewStreamReader(code, blockSize, int64(len(data)), sink)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		log.Fatal("stream round trip mismatch")
	}
	fmt.Printf("read all %d bytes back intact through the degraded stripes\n", len(got))
}
