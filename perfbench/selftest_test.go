package main

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// newTestRunner boots a small hot-zipf-shaped cluster with a few seeded
// objects.
func newTestRunner(t *testing.T) *runner {
	t.Helper()
	code, err := newCode()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := bootCluster(code, hotBlock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.close)
	ds := newDataset("selftest/", 4, hotSize, 2, rand.New(rand.NewPCG(1, 2)))
	if err := seedData(context.Background(), cl.store, ds, 2); err != nil {
		t.Fatal(err)
	}
	return newRunner(cl, ds, hotBlock, nil)
}

// assertSlowFailure checks that exactly one operation of kind failed and
// that it counts as missing every latency limit, not as a fast operation.
func assertSlowFailure(t *testing.T, r *runner, kind string) {
	t.Helper()
	o := r.stats(kind)
	if o.fails != 1 || o.n != 1 {
		t.Fatalf("%s: %d failures of %d attempts, want 1 of 1", kind, o.fails, o.n)
	}
	if len(o.svc) != 0 || o.bytes != 0 {
		t.Fatalf("%s: a failed operation contributed %d service samples and %d bytes", kind, len(o.svc), o.bytes)
	}
	if s := summarize(o.lat); !math.IsInf(s.p50, 1) {
		t.Fatalf("%s: failed operation's latency is %v, want +Inf", kind, s.p50)
	}
}

func TestFlippedByteIsAFailure(t *testing.T) {
	r := newTestRunner(t)
	ctx := context.Background()
	if err := r.readFile(ctx, opRead, 0, time.Now(), nil); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	r.ops = map[string]*opStats{}
	// Flip one byte of what object 1 must hold: the program's (correct)
	// output now differs from the expectation in one byte, exactly as a
	// wrong byte from the program would.
	want := r.ds.pay[r.ds.cur[1]]
	flipped := append([]byte(nil), want...)
	flipped[len(flipped)/2] ^= 0x20
	r.ds.pay[r.ds.cur[1]] = flipped
	if err := r.readFile(ctx, opRead, 1, time.Now(), nil); err == nil {
		t.Fatal("read of an object with a flipped byte passed the check")
	}
	assertSlowFailure(t, r, opRead)
	if err := r.streamRead(ctx, 1, make([]byte, r.ds.size)); err == nil {
		t.Fatal("streamed read of an object with a flipped byte passed the check")
	}
	assertSlowFailure(t, r, opStreamRead)
}

func TestOverwriteBehindTheGeneratorIsAFailure(t *testing.T) {
	r := newTestRunner(t)
	ctx := context.Background()
	// Another writer commits a different version of object 2 without the
	// generator's knowledge; the open-loop generator's next read of it
	// must fail the check.
	if _, err := r.cl.store.WriteFile(ctx, r.ds.names[2], r.ds.pay[4]); err != nil {
		t.Fatal(err)
	}
	sched := []arrival{{at: time.Millisecond, obj: 2}, {at: 2 * time.Millisecond, obj: 3}}
	g := drive(ctx, r, sched, 2, time.Second)
	if g.aborted {
		t.Fatal("generator aborted")
	}
	o := r.stats(opRead)
	if o.n != 2 || o.fails != 1 {
		t.Fatalf("%d failures of %d reads, want 1 of 2", o.fails, o.n)
	}
	if s := summarize(o.lat); !math.IsInf(quantile(o.lat, 1), 1) || math.IsInf(s.p50, 1) {
		t.Fatalf("latencies %v: want one finite and one +Inf", o.lat)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailQ(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	// Parent [0,100) with overlapping children [10,30) and [20,50) and a
	// child clipped at the parent's end [90,120): covered 40 + 10.
	if got := selfTime(0, 100, []interval{{20, 50}, {10, 30}, {90, 120}}); got != 50 {
		t.Fatalf("selfTime = %d, want 50", got)
	}
}
