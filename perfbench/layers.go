package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/gf256"
)

// ladderRow is one rung of the layer ladder: a single call into one layer
// on the workload's own block and stripe shape, measured in isolation.
type ladderRow struct {
	name, below string
	bytes       int // user bytes one call moves
	ns, bpo     float64
	allocs      float64
	lat         []float64 // per-call ns
}

func (r ladderRow) mbps() float64 { return ratio(float64(r.bytes)*1e3, r.ns) }

const (
	rowBudget  = 150 * time.Millisecond
	rpcSamples = 1000 // enough calls for an exact p99 with ten beyond it
)

// measureRow calls fn until the budget is spent (and at least minCalls
// times), recording per-call time and process-wide allocations per call.
func measureRow(name, below string, bytes, minCalls int, fn func() error) (ladderRow, error) {
	if err := fn(); err != nil { // warm pools and plans
		return ladderRow{}, fmt.Errorf("%s: %w", name, err)
	}
	row := ladderRow{name: name, below: below, bytes: bytes, lat: make([]float64, 0, 1<<14)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for len(row.lat) < minCalls || time.Since(t0) < rowBudget {
		c0 := time.Now()
		if err := fn(); err != nil {
			return ladderRow{}, fmt.Errorf("%s: %w", name, err)
		}
		row.lat = append(row.lat, float64(time.Since(c0)))
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(row.lat))
	row.ns = float64(el) / n
	row.bpo = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	row.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	return row, nil
}

// runLadder measures, in order, the GF kernel, the codec, the block
// client's RPCs, one-stripe store calls and whole-file store calls, each
// on the workload's shape. Rows run on the live, otherwise idle cluster.
func runLadder(ctx context.Context, b *bench) ([]ladderRow, error) {
	code, bs := b.code, b.spec.blockSize
	k, d := code.K(), code.D()
	stripe := k * bs
	data := randomBytes(b.rng, max(stripe, b.ds.size))
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = data[i*bs : (i+1)*bs]
	}
	blocks, err := code.Encode(shards)
	if err != nil {
		return nil, err
	}
	degraded := append([][]byte(nil), blocks...)
	degraded[0] = nil
	helpers := make([]int, d)
	chunks := make([][]byte, d)
	for i := range helpers {
		helpers[i] = i + 1
		if chunks[i], err = code.HelperChunk(i+1, 0, blocks[i+1]); err != nil {
			return nil, err
		}
	}
	out := make([]byte, stripe)
	per := code.DataUnitsPerBlock() * (bs / code.UnitsPerBlock())
	dst := make([]byte, per)
	st := b.cl.store
	addr := b.cl.addrs[1]
	obj := b.ds.names[0]
	chunkBytes := len(chunks[0])

	type step struct {
		name, below string
		bytes, min  int
		fn          func() error
	}
	steps := []step{
		{"gf256.muladd", "", bs, 1, func() error { gf256.MulAddSlice(0x8e, data[:bs], out[:bs]); return nil }},
		{"carousel.encode", "gf256.muladd", stripe, 1, func() error { _, err := code.Encode(shards); return err }},
		{"carousel.parread", "gf256.muladd", stripe, 1, func() error { return code.ParallelReadInto(blocks, out) }},
		{"carousel.decode", "gf256.muladd", stripe, 1, func() error { _, err := code.Decode(degraded); return err }},
		{"carousel.repair", "gf256.muladd", bs, 1, func() error { _, err := code.RepairBlock(0, helpers, chunks); return err }},
		{"client.getrange", "carousel.parread", per, rpcSamples, func() error {
			return st.Pool().WithClient(ctx, addr, func(c *blockserver.Client) error {
				return c.GetRangeInto(ctx, blockserver.BlockName(obj, 0, 1), 0, dst)
			})
		}},
		{"client.put", "carousel.encode", bs, rpcSamples, func() error {
			return st.Pool().WithClient(ctx, addr, func(c *blockserver.Client) error {
				return c.Put(ctx, "ladder/put", blocks[1])
			})
		}},
		{"client.chunk", "carousel.repair", chunkBytes, rpcSamples, func() error {
			return st.Pool().WithClient(ctx, addr, func(c *blockserver.Client) error {
				ch, err := c.Chunk(ctx, blockserver.BlockName(obj, 0, 1), 1, 0)
				blockserver.Recycle(ch)
				return err
			})
		}},
		{"store.write_stripe", "client.put", stripe, 1, func() error {
			_, err := st.WriteFile(ctx, "ladder/stripe", data[:stripe])
			return err
		}},
		{"store.read_stripe", "client.getrange", stripe, 1, func() error {
			got, _, err := st.ReadFile(ctx, "ladder/stripe", stripe)
			if err == nil {
				err = check(got, data[:stripe])
			}
			return err
		}},
		{"store.write_file", "store.write_stripe", b.ds.size, 1, func() error {
			_, err := st.WriteFile(ctx, "ladder/file", data[:b.ds.size])
			return err
		}},
		{"store.read_file", "store.read_stripe", b.ds.size, 1, func() error {
			got, _, err := st.ReadFile(ctx, "ladder/file", b.ds.size)
			if err == nil {
				err = check(got, data[:b.ds.size])
			}
			return err
		}},
	}
	var rows []ladderRow
	for _, s := range steps {
		row, err := measureRow(s.name, s.below, s.bytes, s.min, s.fn)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func findRow(rows []ladderRow, name string) ladderRow {
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	return ladderRow{}
}

// perLayer computes the per-layer metrics of a traced run. Each note names
// the end-to-end metric, and the workload, the layer metric should move.
func (b *bench) perLayer() []metric {
	// d spans the whole timed phase; dm only the workload's own segments,
	// for ratios that describe its mix rather than the epilogue's.
	d, dm := obsDiff(b.phase.obs0, b.phase.obs1), b.mainObs
	var ops, svcN, user, svcSum, mainOps, mainUser float64
	var stages stageAcc
	var traced [2]svcAcc
	for _, r := range b.runners {
		if !timed(r.phase) {
			continue
		}
		n, f := r.attempted()
		ops += float64(n - f)
		user += float64(r.bytesMove)
		if mainPhase(r.phase) {
			mainOps += float64(n - f)
			mainUser += float64(r.bytesMove)
		}
		for _, o := range r.ops {
			svcSum += sum(o.svc)
			svcN += float64(len(o.svc))
		}
		if stages.self == nil {
			stages.self = map[string]float64{}
		}
		for k, v := range r.stages.self {
			stages.self[k] += v
		}
		stages.spans += r.stages.spans
		stages.ops += r.stages.ops
		traced[0].ns += r.tracedSvc[0].ns
		traced[0].n += r.tracedSvc[0].n
		traced[1].ns += r.tracedSvc[1].ns
		traced[1].n += r.tracedSvc[1].n
	}
	rd := b.merged(opRead, mainPhase)
	wr := b.merged(opWrite, mainPhase)
	reads := b.merged(opRead, mainPhase)
	reads.merge(b.merged(opReread, mainPhase))
	srd := b.merged(opStreamRead, anyPhase)
	swr := b.merged(opStreamWrite, anyPhase)
	rows := b.ladder
	row := func(n string) ladderRow { return findRow(rows, n) }
	mib := func(x float64) float64 { return x / (1 << 20) }
	fam := func(dd obsDelta, f string) float64 { return float64(dd.families[f]) }
	rsvc, wsvc := summarize(rd.svc), summarize(wr.svc)
	spansPerOp := ratio(float64(stages.spans), float64(stages.ops))
	stage := func(s string) float64 { return ratio(stages.self[s], float64(stages.ops)) / 1e6 }
	w := b.phase.wire()
	self, traceOps := b.tr.selfByName()
	layerSelf := func(prefixes ...string) float64 {
		t := 0.0
		for name, v := range self {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) {
					t += v
				}
			}
		}
		return ratio(t, float64(traceOps)) / 1e6
	}
	rpcAllocs := (row("client.getrange").allocs + row("client.put").allocs + row("client.chunk").allocs) / 3
	onWrite := "write_mbps on bulk-rw"
	onRead := "read_mbps on bulk-rw"
	onGet := "get_tail_ms on hot-zipf"
	out := []metric{
		{"gf256.muladd_gbps", row("gf256.muladd").mbps() / 1e3, "GB/s", onWrite + ", recover_mbps on degraded-repair; predicted no change to read_mbps on bulk-rw"},
		{"codeplan.bytes_per_byte", ratio(fam(dm, "codeplan_bytes_total"), mainUser), "B/B", onWrite + ", read_mbps on degraded-repair"},
		{"codeplan.run_us_mean", d.histMean("codeplan_run_ns") / 1e3, "us", onWrite + ", read_mbps on degraded-repair"},
		{"carousel.encode_mbps", row("carousel.encode").mbps(), "MB/s", onWrite},
		{"carousel.parread_mbps", row("carousel.parread").mbps(), "MB/s", onRead},
		{"carousel.decode_mbps", row("carousel.decode").mbps(), "MB/s", "read_mbps on degraded-repair (block 0 missing)"},
		{"carousel.repair_mbps", row("carousel.repair").mbps(), "MB/s", "recover_mbps on degraded-repair"},
		{"workpool.saturated_per_op", ratio(fam(dm, "workpool_saturated_offers_total"), mainOps), "1/op", onWrite},
		{"bufpool.hit_ratio", ratio(fam(dm, "bufpool_hits_total"), fam(dm, "bufpool_hits_total")+fam(dm, "bufpool_misses_total")), "ratio", "allocs_per_mib on all workloads"},
		{"bufpool.drops_per_op", ratio(fam(dm, "bufpool_drops_total"), mainOps), "1/op", "allocs_per_mib on all workloads"},
		{"blockserver.rpc.get_p50_us", quantile(row("client.getrange").lat, 0.5) / 1e3, "us", onGet + ", " + onRead + " (warm pooled GetRangeInto)"},
		{"blockserver.rpc.get_p99_us", quantile(row("client.getrange").lat, 0.99) / 1e3, "us", onGet + ", " + onRead},
		{"blockserver.rpc.put_p50_us", quantile(row("client.put").lat, 0.5) / 1e3, "us", onGet + ", " + onWrite},
		{"blockserver.rpc.chunk_p50_us", quantile(row("client.chunk").lat, 0.5) / 1e3, "us", "recover_mbps on degraded-repair"},
		{"blockserver.rpc.allocs_per_call", rpcAllocs, "1/call", onGet + ", " + onRead},
		{"blockserver.rpc.calls_per_op", ratio(fam(dm, "blockserver_client_rpcs_total"), mainOps), "1/op", onGet + ", " + onRead + "; host-independent count"},
		{"blockserver.rpc.retries_per_op", ratio(fam(dm, "blockserver_client_retries_total"), mainOps), "1/op", onGet + ", " + onRead},
		{"blockserver.rpc.crc_failures", fam(d, "blockserver_client_frame_crc_failures_total"), "count", onGet + ", " + onRead},
		{"blockserver.pool.dials_per_op", ratio(fam(dm, "blockserver_pool_dials_total"), mainOps), "1/op", onGet + "; host-independent count"},
		{"blockserver.pool.reuse_ratio", ratio(fam(dm, "blockserver_pool_reuses_total"), fam(dm, "blockserver_pool_checkouts_total")), "ratio", onGet},
		{"blockserver.wire.tx_bytes_per_byte", ratio(float64(w.tx), user), "B/B", "read_wire_ratio and " + onRead + "; host-independent count"},
		{"blockserver.wire.rx_bytes_per_byte", ratio(float64(w.rx), user), "B/B", "read_wire_ratio and " + onRead + "; host-independent count"},
		{"blockserver.wire.writes_per_mib", ratio(float64(w.writes), mib(user)), "1/MiB", onRead + " (server write calls)"},
		{"blockserver.wire.reads_per_mib", ratio(float64(w.reads), mib(user)), "1/MiB", onRead + " (server read calls)"},
		{"blockserver.store.read_p50_ms", rsvc.p50 / 1e6, "ms", fmt.Sprintf("read_mbps, get_tail_ms, recover_mbps where they run (ReadFile service, n=%d)", rsvc.n)},
		{"blockserver.store.read_tail_ms", rsvc.tail / 1e6, "ms", fmt.Sprintf("read_mbps, get_tail_ms (p%.1f of %d)", 100*rsvc.q, rsvc.n)},
		{"blockserver.store.write_p50_ms", wsvc.p50 / 1e6, "ms", fmt.Sprintf("write_mbps, put_tail_ms (WriteFile service, n=%d)", wsvc.n)},
		{"blockserver.store.fallback_ratio", ratio(fam(dm, "store_fallback_stripes_total"), fam(dm, "store_fallback_stripes_total")+fam(dm, "store_parallel_stripes_total")), "ratio", "read_mbps on degraded-repair; host-independent count"},
		{"blockserver.store.bytes_fetched_per_byte", ratio(fam(dm, "store_bytes_fetched_total"), float64(reads.bytes)), "B/B", "read_wire_ratio, read_mbps; host-independent count"},
		{"blockserver.store.repair_fetch_us_mean", d.histMean("store_repair_fetch_ns") / 1e3, "us", "recover_mbps on degraded-repair"},
		{"blockserver.store.repair_decode_us_mean", d.histMean("store_repair_decode_ns") / 1e3, "us", "recover_mbps on degraded-repair"},
		{"blockserver.store.repair_writeback_us_mean", d.histMean("store_repair_writeback_ns") / 1e3, "us", "recover_mbps on degraded-repair"},
	}
	for _, s := range []string{"locate", "fetch", "decode", "verify", "cache", "writeback"} {
		out = append(out, metric{"blockserver.store.stage." + s + "_self_ms", stage(s), "ms/op",
			fmt.Sprintf("read_mbps, get_tail_ms, recover_mbps where the stage runs (%d sampled op trees)", stages.ops)})
	}
	hits, misses := fam(dm, "stripecache_hits_total"), fam(dm, "stripecache_misses_total")
	out = append(out,
		metric{"stripecache.hit_ratio", ratio(hits, hits+misses), "ratio", "get_p50_ms on hot-zipf; predicted no change on bulk-rw, degraded-repair"},
		metric{"stripecache.coalesced_per_op", ratio(fam(dm, "stripecache_coalesced_waiters_total"), mainOps), "1/op", "get_p50_ms on hot-zipf"},
		metric{"stripecache.evictions_per_op", ratio(fam(dm, "stripecache_evictions_total"), mainOps), "1/op", "get_p50_ms on hot-zipf"},
		metric{"stripecache.invalidations_per_op", ratio(fam(dm, "stripecache_invalidations_total"), mainOps), "1/op", "get_p50_ms on hot-zipf"},
		metric{"stream.read_ms_per_mib", ratio(sum(srd.svc)/1e6, mib(float64(srd.bytes))), "ms/MiB", "stream_read_mbps on bulk-rw"},
		metric{"stream.write_ms_per_mib", ratio(sum(swr.svc)/1e6, mib(float64(swr.bytes))), "ms/MiB", "stream_write_mbps on bulk-rw"},
		metric{"stream.wire_ratio", ratio(float64(srd.wire.tx), float64(srd.bytes)), "B/B", "stream_read_mbps on bulk-rw; whole-block fetches, ~2x read_wire_ratio"},
		metric{"obs.spans_per_op", spansPerOp, "1/op", "allocs_per_mib on all workloads"},
		metric{"obs.trace_overhead_pct", 100 * ratio(spansPerOp*spanCostNS(), ratio(svcSum, svcN)), "%", "allocs_per_mib on all workloads (span cost x spans/op / op time)"},
		metric{"runtime.gc_cycles_per_op", ratio(b.phase.gcCycles(), ops), "1/op", onRead + ", " + onGet},
		metric{"runtime.gc_pause_ms", b.phase.gcPauseMS(), "ms", onRead + ", " + onGet + " (total in the timed phase)"},
		metric{"runtime.gc_cpu_frac", b.phase.gcCPUFrac(), "ratio", onRead + ", " + onGet},
		metric{"gen.max_ops_s", b.maxOps(), "ops/s", fmt.Sprintf("max_ops_s: highest ladder rate with get p99 <= %g ms, no failure, no growing backlog (hot-zipf); closed-loop ops/s elsewhere", hotLimitMS)},
		metric{"gen.late_p99_ms", quantile(b.gen.late, 0.99) / 1e6, "ms", "validity of hot-zipf latencies (0 on closed loops)"},
		metric{"gen.backlog_max", float64(b.gen.backlogMax), "count", "validity of hot-zipf latencies (0 on closed loops)"},
		metric{"bench.trace_overhead_pct", 100 * (ratio(ratio(traced[1].ns, float64(traced[1].n)), ratio(traced[0].ns, float64(traced[0].n))) - 1), "%", "traced minus untraced service time of the workload's reads"},
		metric{"trace.bench_self_ms", layerSelf("op.", "bench."), "ms/op", "the benchmark's own share of a traced op"},
		metric{"trace.store_self_ms", layerSelf("store."), "ms/op", "read_mbps, write_mbps, recover_mbps"},
		metric{"trace.stream_self_ms", layerSelf("stream."), "ms/op", "stream_read_mbps, stream_write_mbps"},
		metric{"trace.client_self_ms", layerSelf("blockserver."), "ms/op", "setup of degraded-repair cycles (Client.Delete)"},
	)
	for _, r := range rows {
		p := "ladder." + r.name + "."
		note := fmt.Sprintf("%d B/call, %.1f MB/s", r.bytes, r.mbps())
		out = append(out,
			metric{p + "ns_op", r.ns, "ns", note},
			metric{p + "bytes_op", r.bpo, "B", note},
			metric{p + "allocs_op", r.allocs, "1/op", note},
		)
		if r.below != "" {
			out = append(out, metric{p + "ratio_below", r.mbps() / findRow(rows, r.below).mbps(), "ratio", "MB/s relative to " + r.below})
		}
	}
	return out
}
