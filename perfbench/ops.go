package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/obs"
	"carousel/internal/stream"
)

// dataset is a workload's objects and the bytes each is expected to hold.
// cur[i] indexes pay; it changes only when the benchmark itself commits a
// new version, so anything else that changes an object shows as wrong
// bytes. Reads and writes of one object never overlap: the store gives no
// isolation between a read and a concurrent overwrite of the same file
// (a read may return a mix of both versions), so the generator holds a
// per-object reader/writer lock as an application would.
type dataset struct {
	names []string
	size  int
	cur   []int
	pay   [][]byte
	locks []sync.RWMutex
}

func newDataset(prefix string, files, size, spares int, rng *rand.Rand) *dataset {
	d := &dataset{size: size, cur: make([]int, files), locks: make([]sync.RWMutex, files)}
	for i := 0; i < files; i++ {
		d.names = append(d.names, fmt.Sprintf("%s%04d", prefix, i))
		d.cur[i] = i
	}
	for i := 0; i < files+spares; i++ {
		d.pay = append(d.pay, randomBytes(rng, size))
	}
	return d
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n+7)
	for i := 0; i < n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b[:n:n]
}

func (d *dataset) specs() []blockserver.FileSpec {
	out := make([]blockserver.FileSpec, len(d.names))
	for i, n := range d.names {
		out[i] = blockserver.FileSpec{Name: n, Size: d.size}
	}
	return out
}

// freshPayload picks a payload other than file i's current one, so a read
// that returns the previous version is caught.
func (d *dataset) freshPayload(rng *rand.Rand, i int) int {
	for {
		if p := rng.IntN(len(d.pay)); p != d.cur[i] {
			return p
		}
	}
}

// Operation kinds, one opStats each.
const (
	opRead        = "read"         // ReadFile whose MB/s and latency are the workload's read metrics
	opReread      = "reread"       // verifying ReadFile after a recovery
	opWrite       = "write"        // WriteFile
	opStreamRead  = "stream_read"  // stream.PrefetchReader over Store.Source
	opStreamWrite = "stream_write" // stream.Writer over Store.Sink
	opRecover     = "recover"      // Store.RecoverServer
	opDrop        = "drop"         // Client.Delete of one server's blocks
)

// runner executes verified operations against one cluster and records
// them. Methods are safe for concurrent use on distinct objects.
type runner struct {
	cl        *cluster
	ds        *dataset
	blockSize int
	trace     *tracer // nil when untraced

	mu        sync.Mutex
	ops       map[string]*opStats
	bytesMove int64 // user bytes read or written, for per-MiB ratios
	stages    stageAcc
	tracedSvc [2]svcAcc         // [0] untraced, [1] traced primary-op service time
	kindSeq   map[string]uint64 // operations begun, per kind
	// sampleEvery is how often, in traced operations, the program's own
	// span tree of an operation is pulled; reading the tracer ring costs
	// too much to do for every small operation.
	sampleEvery uint64
	failures    []string
	phase       string // "" for the workload's own segments, else "epilogue " or "ladder ..."; prefixes failures
}

type svcAcc struct {
	ns float64
	n  int
}

func newRunner(cl *cluster, ds *dataset, blockSize int, tr *tracer) *runner {
	return &runner{cl: cl, ds: ds, blockSize: blockSize, trace: tr, ops: map[string]*opStats{}, kindSeq: map[string]uint64{}, sampleEvery: 1}
}

func (r *runner) stats(kind string) *opStats {
	o := r.ops[kind]
	if o == nil {
		o = &opStats{}
		r.ops[kind] = o
	}
	return o
}

// opCtx carries one operation's trace bookkeeping.
type opCtx struct {
	traced bool
	root   *span
	sample *obs.Span // program span root when the op's stage tree is sampled
	ctx    context.Context
}

func (r *runner) begin(ctx context.Context, name string) *opCtx {
	r.mu.Lock()
	r.kindSeq[name]++
	nth := r.kindSeq[name]
	r.mu.Unlock()
	oc := &opCtx{ctx: ctx}
	// Traced runs trace every other operation of each kind, so the
	// untraced half gives the tracing overhead from the same run.
	if r.trace != nil && nth%2 == 0 {
		oc.traced = true
		oc.root = r.trace.start(nil, "op."+name)
		if nth%(2*r.sampleEvery) == 0 {
			oc.ctx, oc.sample = obs.StartSpan(ctx, "bench.sample")
		}
	}
	return oc
}

// child starts a benchmark span under the operation's root.
func (oc *opCtx) child(tr *tracer, name string) *span {
	if !oc.traced {
		return nil
	}
	return tr.start(oc.root, name)
}

func (r *runner) end(oc *opCtx, svc time.Duration, primary bool) {
	if oc.sample != nil {
		oc.sample.End()
		spans := obs.DefaultTracer().Spans(oc.sample.TraceID())
		r.mu.Lock()
		r.stages.add(spans)
		r.mu.Unlock()
	}
	oc.root.end()
	if primary && r.trace != nil {
		r.mu.Lock()
		a := &r.tracedSvc[btoi(oc.traced)]
		a.ns += float64(svc)
		a.n++
		r.mu.Unlock()
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// record folds one operation's outcome into its kind's stats.
// The operation ran from t0 for svc; its latency counts from due.
func (r *runner) record(kind string, err error, due, t0 time.Time, svc time.Duration, bytes int, wire wireSnap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.stats(kind)
	o.wire = o.wire.add(wire)
	if err != nil {
		o.fail()
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("%s%s: %v", r.phase, kind, err))
		}
		return
	}
	o.ok(t0.Add(svc).Sub(due), svc, bytes)
	if kind != opRecover { // regenerated blocks are not user data
		r.bytesMove += int64(bytes)
	}
}

// check compares what came back with what the object must hold.
func check(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("short read: %d of %d bytes", len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("wrong byte at offset %d", i)
	}
	return nil
}

// readFile reads object i and verifies every byte. due is when the
// operation was scheduled (its start on closed loops). fallback, when
// non-nil, receives the stripes served by the any-k decode.
func (r *runner) readFile(ctx context.Context, kind string, i int, due time.Time, fallback *int) error {
	d := r.ds
	d.locks[i].RLock()
	defer d.locks[i].RUnlock()
	want := d.pay[d.cur[i]]
	oc := r.begin(ctx, kind)
	w0 := r.cl.wire.snap()
	t0 := time.Now()
	sp := oc.child(r.trace, "store.ReadFile")
	got, rs, err := r.cl.store.ReadFile(oc.ctx, d.names[i], d.size)
	sp.end()
	svc := time.Since(t0)
	if err == nil {
		vs := oc.child(r.trace, "bench.verify")
		err = check(got, want)
		vs.end()
	}
	if err == nil && fallback != nil {
		*fallback = rs.StripesFallback
	}
	r.end(oc, svc, kind == opRead)
	r.record(kind, err, due, t0, svc, len(want), r.cl.wire.snap().sub(w0))
	if err != nil {
		return fmt.Errorf("read %s: %w", d.names[i], err)
	}
	return nil
}

// writeFile commits payload p as object i's new version.
func (r *runner) writeFile(ctx context.Context, i, p int, due time.Time) error {
	d := r.ds
	d.locks[i].Lock()
	defer d.locks[i].Unlock()
	oc := r.begin(ctx, opWrite)
	w0 := r.cl.wire.snap()
	t0 := time.Now()
	sp := oc.child(r.trace, "store.WriteFile")
	_, err := r.cl.store.WriteFile(oc.ctx, d.names[i], d.pay[p])
	sp.end()
	svc := time.Since(t0)
	if err == nil {
		d.cur[i] = p
	}
	r.end(oc, svc, false)
	r.record(opWrite, err, due, t0, svc, d.size, r.cl.wire.snap().sub(w0))
	if err != nil {
		return fmt.Errorf("write %s: %w", d.names[i], err)
	}
	return nil
}

// streamChunk is the caller-side write size for streamed uploads.
const streamChunk = 1 << 20

// streamWrite uploads payload p as object i through stream.Writer.
func (r *runner) streamWrite(ctx context.Context, i, p int) error {
	d := r.ds
	d.locks[i].Lock()
	defer d.locks[i].Unlock()
	oc := r.begin(ctx, opStreamWrite)
	w0 := r.cl.wire.snap()
	t0 := time.Now()
	sp := oc.child(r.trace, "stream.Writer")
	err := func() error {
		w, err := stream.NewWriter(r.cl.code, r.blockSize, r.cl.store.Sink(oc.ctx, d.names[i]))
		if err != nil {
			return err
		}
		data := d.pay[p]
		for off := 0; off < len(data); off += streamChunk {
			if _, err := w.Write(data[off:min(off+streamChunk, len(data))]); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}()
	sp.end()
	svc := time.Since(t0)
	if err == nil {
		d.cur[i] = p
	}
	r.end(oc, svc, false)
	r.record(opStreamWrite, err, t0, t0, svc, d.size, r.cl.wire.snap().sub(w0))
	if err != nil {
		return fmt.Errorf("stream write %s: %w", d.names[i], err)
	}
	return nil
}

// streamRead reads object i back through stream.PrefetchReader into buf
// (at least the object size) and verifies it, including that the stream
// ends where the object does.
func (r *runner) streamRead(ctx context.Context, i int, buf []byte) error {
	d := r.ds
	d.locks[i].RLock()
	defer d.locks[i].RUnlock()
	want := d.pay[d.cur[i]]
	oc := r.begin(ctx, opStreamRead)
	w0 := r.cl.wire.snap()
	t0 := time.Now()
	sp := oc.child(r.trace, "stream.PrefetchReader")
	got := buf[:d.size]
	err := func() error {
		rd, err := stream.NewPrefetchReader(r.cl.code, r.blockSize, int64(d.size), r.cl.store.Source(oc.ctx, d.names[i]), stream.DefaultPrefetchDepth)
		if err != nil {
			return err
		}
		defer rd.Close()
		if _, err := io.ReadFull(rd, got); err != nil {
			return err
		}
		if n, err := rd.Read(buf[:1]); n != 0 || err != io.EOF {
			return fmt.Errorf("stream runs past the object's %d bytes", d.size)
		}
		return nil
	}()
	sp.end()
	svc := time.Since(t0)
	if err == nil {
		vs := oc.child(r.trace, "bench.verify")
		err = check(got, want)
		vs.end()
	}
	r.end(oc, svc, false)
	r.record(opStreamRead, err, t0, t0, svc, d.size, r.cl.wire.snap().sub(w0))
	if err != nil {
		return fmt.Errorf("stream read %s: %w", d.names[i], err)
	}
	return nil
}

// loseAndRecover empties server 0 of the dataset's blocks (a node that
// rejoined empty), optionally reads every object degraded, recovers the
// server with Store.RecoverServer, checks its block count is restored and
// re-reads everything. Only the reads and the recovery are timed
// operations; the deletes are the injected fault.
func (r *runner) loseAndRecover(ctx context.Context, degradedReads bool) error {
	d := r.ds
	specs := d.specs()
	before := r.cl.servers[0].BlockCount()
	oc := r.begin(ctx, opDrop)
	sp := oc.child(r.trace, "blockserver.Client.Delete")
	n, err := r.cl.dropServerBlocks(oc.ctx, 0, specs, r.blockSize)
	sp.end()
	r.end(oc, 0, false)
	if err == nil && r.cl.servers[0].BlockCount() != before-n {
		err = fmt.Errorf("server 0 holds %d blocks after deleting %d of %d", r.cl.servers[0].BlockCount(), n, before)
	}
	r.record(opDrop, err, time.Now(), time.Now(), 0, 0, wireSnap{})
	if err != nil {
		return fmt.Errorf("drop server 0: %w", err)
	}
	if degradedReads {
		for i := range d.names {
			var fb int
			if err := r.readFile(ctx, opRead, i, time.Now(), &fb); err != nil {
				return err
			}
			if fb == 0 {
				return fmt.Errorf("read %s with server 0 empty took no any-k fallback", d.names[i])
			}
		}
	}
	oc = r.begin(ctx, opRecover)
	w0 := r.cl.wire.snap()
	t0 := time.Now()
	sp = oc.child(r.trace, "store.RecoverServer")
	rep, err := r.cl.store.RecoverServer(oc.ctx, 0, specs)
	sp.end()
	svc := time.Since(t0)
	r.end(oc, svc, false)
	recovered := 0
	if err == nil {
		recovered = int(rep.BytesRecovered)
		switch {
		case rep.BlocksRepaired != n:
			err = fmt.Errorf("recovered %d blocks, want %d", rep.BlocksRepaired, n)
		case r.cl.servers[0].BlockCount() != before:
			err = fmt.Errorf("server 0 holds %d blocks after recovery, want %d", r.cl.servers[0].BlockCount(), before)
		}
	}
	r.record(opRecover, err, t0, t0, svc, recovered, r.cl.wire.snap().sub(w0))
	if err != nil {
		return fmt.Errorf("recover server 0: %w", err)
	}
	for i := range d.names {
		if err := r.readFile(ctx, opReread, i, time.Now(), nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) attempted() (n, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range r.ops {
		n += o.n
		failed += o.fails
	}
	return n, failed
}
