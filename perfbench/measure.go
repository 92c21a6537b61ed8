package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"carousel/internal/obs"
)

// opStats collects raw samples of one operation kind. Latencies are kept
// whole so quantiles are exact; a failed, short or wrong-byte operation is
// stored as +Inf, so it misses every latency limit and is never fast.
type opStats struct {
	lat   []float64 // ns; from the scheduled arrival on open-loop workloads
	svc   []float64 // ns of service time of successful operations
	rates []float64 // MB/s of each successful operation
	bytes int64     // user bytes moved by successful operations
	wire  wireSnap  // server wire traffic during the operations (closed loops)
	n     int       // attempted
	fails int
}

func (o *opStats) ok(lat, svc time.Duration, bytes int) {
	o.n++
	o.lat = append(o.lat, float64(lat))
	o.svc = append(o.svc, float64(svc))
	o.rates = append(o.rates, float64(bytes)/1e6/svc.Seconds())
	o.bytes += int64(bytes)
}

func (o *opStats) fail() {
	o.n++
	o.fails++
	o.lat = append(o.lat, math.Inf(1))
}

// mbps is the median operation's user MB/s (1 MB = 1e6 bytes). Every
// operation of one kind moves the same bytes within a workload, and the
// median keeps a host hiccup during one operation out of the figure.
func (o *opStats) mbps() float64 { return quantile(o.rates, 0.5) }

func (o *opStats) merge(p *opStats) {
	o.lat = append(o.lat, p.lat...)
	o.svc = append(o.svc, p.svc...)
	o.rates = append(o.rates, p.rates...)
	o.bytes += p.bytes
	o.wire = o.wire.add(p.wire)
	o.n += p.n
	o.fails += p.fails
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the exact nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQ is the highest percentile, capped at p99, with at least ten
// samples beyond it; below 20 samples it is the median.
func tailQ(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// timing summarises samples as the guide asks: median, tail, count.
type timing struct {
	p50, tail, q float64
	n            int
}

func summarize(xs []float64) timing {
	q := tailQ(len(xs))
	return timing{p50: quantile(xs, 0.5), tail: quantile(xs, q), q: q, n: len(xs)}
}

// obsDelta is the change of the program's published counters and
// histogram sums/counts between two snapshots of obs.Default(). Histogram
// quantiles are never read: their buckets are a factor of two wide.
type obsDelta struct {
	families map[string]int64 // counters summed over labels
	hsum     map[string]int64
	hcount   map[string]int64
}

func obsDiff(a, b *obs.Snapshot) obsDelta {
	d := obsDelta{map[string]int64{}, map[string]int64{}, map[string]int64{}}
	for k, v := range b.Counters {
		d.families[obs.Family(k)] += v - a.Counters[k]
	}
	for k, h := range b.Histograms {
		f := obs.Family(k)
		d.hsum[f] += h.Sum - a.Histograms[k].Sum
		d.hcount[f] += h.Count - a.Histograms[k].Count
	}
	return d
}

// add folds another delta into d.
func (d *obsDelta) add(o obsDelta) {
	if d.families == nil {
		*d = obsDelta{map[string]int64{}, map[string]int64{}, map[string]int64{}}
	}
	for k, v := range o.families {
		d.families[k] += v
	}
	for k, v := range o.hsum {
		d.hsum[k] += v
	}
	for k, v := range o.hcount {
		d.hcount[k] += v
	}
}

// histMean is a histogram family's mean observation over the delta.
func (d obsDelta) histMean(family string) float64 {
	return ratio(float64(d.hsum[family]), float64(d.hcount[family]))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseStats brackets a timed phase: runtime mallocs, GC work, the
// program's obs counters and the wire, plus a heap-peak sampler.
type phaseStats struct {
	t0, t1     time.Time
	ms0, ms1   runtime.MemStats
	obs0, obs1 *obs.Snapshot
	wire0      wireSnap
	wire1      wireSnap
	gc0, gc1   [2]float64 // gc cpu-seconds, total cpu-seconds
	peak       uint64     // written by the sampler, read after it exits
	stop       chan struct{}
	done       sync.WaitGroup
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() [2]float64 {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapSampleEvery is the heap-peak sampling period: runtime/metrics reads
// do not stop the world, so a short period costs little.
const heapSampleEvery = 2 * time.Millisecond

func startPhase(w *wireCounters) *phaseStats {
	p := &phaseStats{stop: make(chan struct{})}
	runtime.ReadMemStats(&p.ms0)
	p.obs0 = obs.Default().Snapshot()
	p.wire0 = w.snap()
	p.gc0 = readCPU()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			p.peak = max(p.peak, s[0].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	p.t0 = time.Now()
	return p
}

func (p *phaseStats) end(w *wireCounters) {
	p.t1 = time.Now()
	close(p.stop)
	p.done.Wait()
	p.gc1 = readCPU()
	p.wire1 = w.snap()
	p.obs1 = obs.Default().Snapshot()
	runtime.ReadMemStats(&p.ms1)
}

func (p *phaseStats) seconds() float64     { return p.t1.Sub(p.t0).Seconds() }
func (p *phaseStats) mallocs() float64     { return float64(p.ms1.Mallocs - p.ms0.Mallocs) }
func (p *phaseStats) wire() wireSnap       { return p.wire1.sub(p.wire0) }
func (p *phaseStats) heapPeakMiB() float64 { return float64(p.peak) / (1 << 20) }
func (p *phaseStats) gcCycles() float64    { return float64(p.ms1.NumGC - p.ms0.NumGC) }
func (p *phaseStats) gcPauseMS() float64 {
	return float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs) / 1e6
}
func (p *phaseStats) gcCPUFrac() float64 {
	return ratio(p.gc1[0]-p.gc0[0], p.gc1[1]-p.gc0[1])
}
