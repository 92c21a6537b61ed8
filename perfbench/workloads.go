package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/workload"
)

// Workload shapes. Stripes hold k*blockSize data bytes; block sizes are
// multiples of the code's 5-unit block alignment.
const (
	bulkBlock = 43690 // 262140-byte (~256 KiB) stripes
	bulkFiles = 2     // one file for WriteFile/ReadFile, one for streaming
	bulkSize  = 64 * codeK * bulkBlock
	bulkPays  = 1 // spare payloads beyond one per file

	hotBlock = 4095 // one 24570-byte (~24 KiB) stripe per object
	hotObjs  = 1024 // 24 MiB in total, six times the cache
	hotSize  = codeK * hotBlock
	hotPays  = 64
	hotCache = 4 << 20

	degBlock = bulkBlock
	degFiles = 4
	degSize  = 32 * codeK * degBlock // ~8 MiB
	degPays  = 4
)

// Open-loop constants for hot-zipf. They are fixed, never calibrated at
// run time, so every run offers the same load.
const (
	zipfS       = 1.1
	writeShare  = 0.05
	hotRate     = 500.0 // arrivals/s of the fixed-rate phase
	hotLimitMS  = 10.0  // get p99 limit that max_ops_s must meet
	ladderBase  = 500.0 // lowest ladder rate, arrivals/s
	ladderStep  = 1.04  // each rung offers 4% more than the last
	ladderRungs = 80    // up to ~10.6k arrivals/s
)

// A run alternates segments of the workload's own operations with slices
// of a common epilogue: streaming part of the data set through
// stream.Writer/PrefetchReader, then losing node 0 and recovering it over
// all of it, re-reading everything. So every end-to-end metric has samples
// on every workload, the data set is verified throughout, and the
// epilogue's samples span the run instead of one moment of the host.
const (
	segments           = 4
	recoveriesPerSlice = 2
)

type workloadSpec struct {
	name       string
	blockSize  int
	files      int
	size       int
	spares     int
	cacheBytes int64
	streamObjs int
	main       func(ctx context.Context, b *bench, seg int, deadline time.Time) error
}

var workloads = map[string]*workloadSpec{
	"bulk-rw": {
		name: "bulk-rw", blockSize: bulkBlock, files: bulkFiles, size: bulkSize, spares: bulkPays,
		streamObjs: 1, main: bulkMain,
	},
	"hot-zipf": {
		name: "hot-zipf", blockSize: hotBlock, files: hotObjs, size: hotSize, spares: hotPays,
		cacheBytes: hotCache, streamObjs: 256, main: hotMain,
	},
	"degraded-repair": {
		name: "degraded-repair", blockSize: degBlock, files: degFiles, size: degSize, spares: degPays,
		streamObjs: 8 * degFiles, main: degradedMain,
	},
}

// bulkMain: one closed-loop client, WriteFile then ReadFile of one file,
// then a streamed write and a prefetching streamed read of the other.
func bulkMain(ctx context.Context, b *bench, _ int, deadline time.Time) error {
	r := b.newRunner("")
	buf := make([]byte, b.ds.size)
	for time.Now().Before(deadline) {
		if err := r.writeFile(ctx, 0, b.ds.freshPayload(b.rng, 0), time.Now()); err == nil {
			_ = r.readFile(ctx, opRead, 0, time.Now(), nil) // failures are recorded
		}
		if err := r.streamWrite(ctx, 1, b.ds.freshPayload(b.rng, 1)); err == nil {
			_ = r.streamRead(ctx, 1, buf)
		}
	}
	return nil
}

// degradedMain: one closed-loop client. Each cycle overwrites one file,
// empties server 0, reads every file degraded, recovers server 0 and
// re-reads everything.
func degradedMain(ctx context.Context, b *bench, _ int, deadline time.Time) error {
	r := b.newRunner("")
	for c := 0; time.Now().Before(deadline); c++ {
		i := c % len(b.ds.names)
		if err := r.writeFile(ctx, i, b.ds.freshPayload(b.rng, i), time.Now()); err != nil {
			continue
		}
		if err := r.loseAndRecover(ctx, true); err != nil {
			return err // the cluster is in an unknown state; stop the run
		}
	}
	return nil
}

// arrival is one scheduled request of the open-loop generator.
type arrival struct {
	at    time.Duration // offset from the start of the phase
	obj   int
	write bool
	pay   int
}

// schedule draws a phase's arrivals from the seed alone: Poisson arrivals
// at rate, Zipf object popularity, a fixed write share.
func schedule(seed, salt uint64, rate float64, dur time.Duration, objs, pays int) []arrival {
	rng := rand.New(rand.NewPCG(seed, salt))
	z := workload.NewZipf(zipfS, objs, int64(seed^salt))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, arrival{
			at:    time.Duration(t * float64(time.Second)),
			obj:   z.Next(),
			write: rng.Float64() < writeShare,
			pay:   rng.IntN(pays),
		})
	}
}

// genResult is what the generator saw while driving one phase.
type genResult struct {
	late       []float64 // ns each arrival was dispatched after it was due
	backlogMax int       // most arrivals due but not yet dispatched
	aborted    bool
	elapsed    time.Duration // first due time to last completion
}

// drive offers sched open loop with nproc workers. Each worker takes the
// next arrival in schedule order and starts it at its due time; when every
// worker is busy the arrival waits, and its latency still counts from the
// due time. The workers wait for due times themselves rather than being
// handed requests by a separate generator goroutine, which would hold a
// scheduler slot while sleeping and delay the hand-off. Lateness beyond
// abortLate stops the phase (the rate is past capacity).
func drive(ctx context.Context, r *runner, sched []arrival, nproc int, abortLate time.Duration) genResult {
	var (
		g       genResult
		mu      sync.Mutex
		last    time.Time
		next    atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.at)
				waitUntil(due)
				now := time.Now()
				since := now.Sub(start)
				backlog := sort.Search(len(sched), func(j int) bool { return sched[j].at > since }) - i - 1
				mu.Lock()
				g.late = append(g.late, float64(now.Sub(due)))
				g.backlogMax = max(g.backlogMax, backlog)
				mu.Unlock()
				if now.Sub(due) > abortLate {
					aborted.Store(true)
					return
				}
				d := r.ds
				if a.write {
					d.locks[a.obj].RLock()
					p := a.pay
					if p == d.cur[a.obj] {
						p = (p + 1) % len(d.pay)
					}
					d.locks[a.obj].RUnlock()
					_ = r.writeFile(ctx, a.obj, p, due) // failures are recorded
				} else {
					_ = r.readFile(ctx, opRead, a.obj, due, nil)
				}
				done := time.Now()
				mu.Lock()
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	g.aborted = aborted.Load()
	g.elapsed = last.Sub(start)
	return g
}

// hotMain offers the fixed rate until the deadline.
func hotMain(ctx context.Context, b *bench, seg int, deadline time.Time) error {
	r := b.newRunner("")
	sched := schedule(b.seed, uint64(1+seg), hotRate, time.Until(deadline), len(b.ds.names), len(b.ds.pay))
	w0 := b.cl.wire.snap()
	g := drive(ctx, r, sched, b.nproc, time.Duration(10*hotLimitMS*float64(time.Millisecond)))
	b.openWire = b.openWire.add(b.cl.wire.snap().sub(w0))
	b.gen.late = append(b.gen.late, g.late...)
	b.gen.backlogMax = max(b.gen.backlogMax, g.backlogMax)
	if g.aborted {
		return fmt.Errorf("generator fell %v behind at the fixed rate %.0f/s", 10*hotLimitMS, hotRate)
	}
	return nil
}

// ladderSearch finds max_ops_s: a bisection over the fixed ladder of
// rates, each probe offering one rung open loop for an equal share of dur.
// Probes share the cluster, the cache and the data set; their operations
// count as attempted.
func ladderSearch(ctx context.Context, b *bench, dur time.Duration) {
	probes := 0
	for n := ladderRungs; n > 0; n /= 2 {
		probes++
	}
	probe := dur / time.Duration(probes)
	lo, hi := -1, ladderRungs
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := ladderRate(mid)
		pr := b.newRunner(fmt.Sprintf("ladder %.0f/s: ", rate))
		s := schedule(b.seed, uint64(100+mid), rate, probe, len(b.ds.names), len(b.ds.pay))
		pg := drive(ctx, pr, s, b.nproc, time.Duration(5*hotLimitMS*float64(time.Millisecond)))
		rd := pr.stats(opRead)
		n, failed := pr.attempted()
		ok := failed == 0 && !pg.aborted && quantile(rd.lat, 0.99) <= hotLimitMS*1e6 && !growing(pg.late)
		b.ladderLog = append(b.ladderLog, fmt.Sprintf("%.0f/s: ok=%v n=%d p99=%.2fms late_p99=%.2fms backlog=%d",
			rate, ok, n, quantile(rd.lat, 0.99)/1e6, quantile(pg.late, 0.99)/1e6, pg.backlogMax))
		if ok {
			lo = mid
			b.ladderMax = float64(n) / pg.elapsed.Seconds()
		} else {
			hi = mid
		}
	}
}

// waitUntil returns at t. An idle Go runtime wakes timer sleepers at
// millisecond granularity, which would add up to a millisecond of false
// lateness to every arrival, so the last stretch sleeps in the kernel.
// The sleep holds the caller's scheduler slot; the callers are workers
// that run the request themselves once it is due.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up loops
		}
	}
}

func ladderRate(i int) float64 {
	r := ladderBase
	for ; i > 0; i-- {
		r *= ladderStep
	}
	return r
}

// growing reports a backlog that builds over a probe: arrivals in its
// last quarter wait longer than those in its first by more than a quarter
// of the latency limit.
func growing(late []float64) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	return quantile(late[len(late)-q:], 0.5)-quantile(late[:q], 0.5) > hotLimitMS*1e6/4
}

// epilogueSlice runs slice seg of the epilogue: its share of the stream
// round trips, then losses and recoveries of node 0.
func epilogueSlice(ctx context.Context, b *bench, seg int) error {
	r := b.newRunner("epilogue ")
	buf := make([]byte, b.ds.size)
	n := b.spec.streamObjs
	for j := seg * n / segments; j < (seg+1)*n/segments; j++ {
		i := b.perm[j%len(b.perm)]
		if err := r.streamWrite(ctx, i, b.ds.freshPayload(b.rng, i)); err != nil {
			return err
		}
		if err := r.streamRead(ctx, i, buf); err != nil {
			return err
		}
	}
	for i := 0; i < recoveriesPerSlice; i++ {
		if err := r.loseAndRecover(ctx, false); err != nil {
			return err
		}
	}
	return nil
}

// seedData writes every object's first version with nproc writers and
// reads it all back once, verified, so pools and caches are warm before
// the first timed operation.
func seedData(ctx context.Context, st *blockserver.Store, ds *dataset, nproc int) error {
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ds.names); i += nproc {
				if _, err := st.WriteFile(ctx, ds.names[i], ds.pay[ds.cur[i]]); err != nil {
					errs[w] = err
					return
				}
				got, _, err := st.ReadFile(ctx, ds.names[i], ds.size)
				if err == nil {
					err = check(got, ds.pay[ds.cur[i]])
				}
				if err != nil {
					errs[w] = fmt.Errorf("seed %s: %w", ds.names[i], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
