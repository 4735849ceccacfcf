package main

import (
	"fmt"
	"time"

	"hoplite/internal/types"
)

func p50Note(s summary) string { return fmt.Sprintf("p50 n=%d", s.N) }

func tailNote(s summary) string {
	if !s.TailOK {
		return fmt.Sprintf("p%g n=%d (fewer than %d samples beyond any tail percentile)", s.TailPct, s.N, minBeyond)
	}
	return fmt.Sprintf("p%g n=%d", s.TailPct, s.N)
}

// endToEnd returns the metrics a user of the system sees; every workload
// reports all of them. The rates divide what completed ops delivered by
// the whole window, so time lost to a failed or stalled op lowers them.
// op_ms is the latency of the workload's defining operation
// (workload.primary); its tail is in workloadMetrics.
func endToEnd(wl *workload, setup metric, w windowResult) []metric {
	secs := w.elapsed.Seconds()
	completed := w.rec.attempted - w.rec.failed
	op := summarize(w.rec.samples[wl.primary])
	return []metric{
		setup,
		{name: "ops_per_s", unit: "1/s", value: float64(completed) / secs,
			note: fmt.Sprintf("%d completed ops in %.2fs", completed, secs)},
		{name: "goodput_MBps", unit: "MB/s", value: float64(w.rec.goodBytes) / 1e6 / secs,
			note: "verified payload bytes of completed ops"},
		{name: "op_ms_p50", value: op.P50, unit: "ms", note: wl.primary + "_ms " + p50Note(op)},
	}
}

// workloadMetrics returns the failure fraction, the peak heap and the
// workload-specific latencies by their per-workload names.
func workloadMetrics(w windowResult) []metric {
	out := []metric{
		{name: "failed_frac", value: ratio(float64(w.rec.failed), float64(w.rec.attempted)), unit: "ratio",
			note: fmt.Sprintf("%d/%d failed %v", w.rec.failed, w.rec.attempted, w.rec.failures)},
		peakHeap("peak_heap_MB", w),
	}
	for _, name := range []string{"bcast", "allreduce", "query", "put", "get", "fault_bcast"} {
		samples, ok := w.rec.samples[name]
		if !ok {
			continue
		}
		s := summarize(samples)
		out = append(out, metric{name: name + "_ms_p50", value: s.P50, unit: "ms", note: p50Note(s)})
		if name != "put" {
			out = append(out, metric{name: name + "_ms_tail", value: s.Tail, unit: "ms", note: tailNote(s)})
		}
	}
	return out
}

// peakHeap is the largest live heap a GC found during the window.
func peakHeap(name string, w windowResult) metric {
	return metric{name: name, value: float64(w.peakHeap) / (1 << 20), unit: "MB", note: "largest live heap a GC found"}
}

func residueMetrics(r residue, leaked int) []metric {
	return []metric{
		{name: "directory.objects_end", value: float64(r.dirObjects), unit: "count", note: "entries over all shard replicas"},
		{name: "store.used_bytes_end", value: float64(r.storeBytes), unit: "B"},
		{name: "spill.used_bytes_end", value: float64(r.spillBytes), unit: "B"},
		{name: "runtime.goroutines_leaked", value: float64(leaked), unit: "count", note: "after Cluster.Close"},
	}
}

// perLayer derives the per-layer metrics of the traced window w; plain is
// the untraced half run just before it on the same cluster.
func perLayer(wl *workload, b *bench, w, plain windowResult, lp *layerProbes, res residue, leaked int) []metric {
	ops := w.rec.attempted
	secs := w.elapsed.Seconds()
	c := w.nodes
	lp.mu.Lock()
	defer lp.mu.Unlock()
	span := func(name string) summary { return summarize(w.tr.durations(name)) }
	p50 := func(name string, s summary) metric {
		return metric{name: name, value: s.P50, unit: "ms", note: p50Note(s)}
	}
	var self time.Duration
	selfs := w.tr.selfTimes("op")
	for _, d := range selfs {
		self += d
	}
	reduce := span("core.reduce")
	if !wl.reduces {
		reduce = summarize(lp.reduce)
	}
	rtt := summarize(lp.rtt)
	lookup := summarize(lp.lookup)
	op := summarize(w.rec.samples[wl.primary])
	stream := median(lp.streams)
	rttRatio, bwRatio := linkRatios(b)
	rejoin := summarize(w.rec.samples["rejoin"])
	plainOps := float64(plain.rec.attempted-plain.rec.failed) / plain.elapsed.Seconds()
	tracedOps := float64(ops-w.rec.failed) / secs

	out := []metric{
		p50("core.put_ms_p50", span("core.put")),
		p50("core.get_ms_p50", span("core.get")),
		p50("core.reduce_ms_p50", reduce),
		p50("core.reduce_local_ms_p50", summarize(lp.reduceLoc)),
		p50("core.delete_ms_p50", span("core.delete")),
		{name: "core.self_ms_per_op", value: ratio(ms(self), float64(len(selfs))), unit: "ms", note: "op time outside layer calls"},
		{name: "directory.calls_per_op", value: perOp(c.dirCalls, ops), unit: "count"},
		p50("directory.lookup_ms_p50", lookup),
		{name: "directory.lookup_ms_tail", value: lookup.Tail, unit: "ms", note: tailNote(lookup)},
		{name: "wire.frames_per_op", value: perOp(c.wireFrames, ops), unit: "count"},
		{name: "wire.flushes_per_op", value: perOp(c.wireFlushes, ops), unit: "count"},
		{name: "wire.ctrl_bytes_per_op", value: perOp(c.wireBytes, ops), unit: "B"},
		p50("netem.rtt_ms_p50", rtt),
		{name: "netem.rtt_ms_tail", value: rtt.Tail, unit: "ms", note: tailNote(rtt)},
		{name: "netem.stream_MBps", value: stream, unit: "MB/s", note: fmt.Sprintf("median of %d", len(lp.streams))},
		{name: "netem.rtts_per_op", value: ratio(op.P50, rtt.P50), unit: "count", note: wl.primary + "_ms p50 / rtt p50"},
		{name: "transport.pulls_per_op", value: perOp(c.pulls, ops), unit: "count"},
		{name: "transport.ranged_pull_frac", value: ratio(float64(c.rangedPulls), float64(c.pulls)), unit: "ratio"},
		{name: "transport.sent_bytes_per_useful_byte", value: ratio(float64(c.sentBytes), float64(w.rec.goodBytes)), unit: "ratio"},
		p50("transport.pull_ms_p50", summarize(lp.pull)),
		p50("store.create_ms_p50", summarize(lp.create)),
		{name: "store.demotions_per_op", value: perOp(c.demotions, ops), unit: "count"},
		{name: "loccache.hit_ratio", value: ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), unit: "ratio",
			note: fmt.Sprintf("%d hits, %d misses", c.cacheHits, c.cacheMisses)},
		{name: "loccache.stale_per_op", value: perOp(c.cacheStale, ops), unit: "count"},
		{name: "linkstate.rtt_est_ratio", value: rttRatio, unit: "ratio"},
		{name: "linkstate.bw_est_ratio", value: bwRatio, unit: "ratio"},
		{name: "membership.rejoin_ms_p50", value: rejoin.P50, unit: "ms", note: p50Note(rejoin)},
		{name: "runtime.cpu_ms_per_op", value: ratio(ms(w.rt.cpu), float64(ops)), unit: "ms"},
		{name: "runtime.allocs_per_op", value: ratio(float64(w.rt.mallocs), float64(ops)), unit: "count"},
		{name: "runtime.alloc_bytes_per_op", value: ratio(float64(w.rt.allocBytes), float64(ops)), unit: "B"},
		{name: "runtime.gc_pause_ms_per_s", value: ms(w.rt.gcPause) / secs, unit: "ms/s"},
		peakHeap("runtime.peak_heap_MB", w),
		{name: "trace.overhead_frac", value: 1 - ratio(tracedOps, plainOps), unit: "ratio",
			note: fmt.Sprintf("ops/s untraced %.2f, traced %.2f; probe errors %v %v", plainOps, tracedOps, lp.errors, lp.firstErr)},
	}
	return append(out, residueMetrics(res, leaked)...)
}

// linkRatios returns the median link-state estimate over every node's
// measured peers, divided by the configured emulated link.
func linkRatios(b *bench) (float64, float64) {
	refRTT, refBW := ms(2*b.link.Latency), b.link.BytesPerSec
	members := make(map[types.NodeID]bool)
	for _, n := range b.c.Nodes() {
		if n != nil {
			members[n.ID()] = true
		}
	}
	var rtts, bws []float64
	for _, n := range b.c.Nodes() {
		if n == nil {
			continue
		}
		for _, e := range n.LinkState() {
			if !members[e.Peer] || !e.Measured {
				continue
			}
			rtts = append(rtts, ms(e.RTT)/refRTT)
			bws = append(bws, e.Bandwidth/refBW)
		}
	}
	return median(rtts), median(bws)
}
