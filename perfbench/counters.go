package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"hoplite/internal/core"
)

// nodeCounters is the sum of the counters the layers already export, read
// from outside through each node's public accessors.
type nodeCounters struct {
	dirCalls    int64 // directory.Client.Stats().Calls
	wireFrames  int64 // ClientStats.Wire.Frames
	wireFlushes int64 // ClientStats.Wire.Flushes
	wireBytes   int64 // ClientStats.Wire.Bytes
	pulls       int64 // transport Stats.Pulls (served)
	rangedPulls int64 // transport Stats.RangedPulls
	sentBytes   int64 // Σ PeerDataStats Bytes (payload sent)
	cacheHits   int64
	cacheMisses int64
	cacheStale  int64
	demotions   int64 // store demotions to spill
}

func (c *nodeCounters) add(o nodeCounters, sign int64) {
	c.dirCalls += sign * o.dirCalls
	c.wireFrames += sign * o.wireFrames
	c.wireFlushes += sign * o.wireFlushes
	c.wireBytes += sign * o.wireBytes
	c.pulls += sign * o.pulls
	c.rangedPulls += sign * o.rangedPulls
	c.sentBytes += sign * o.sentBytes
	c.cacheHits += sign * o.cacheHits
	c.cacheMisses += sign * o.cacheMisses
	c.cacheStale += sign * o.cacheStale
	c.demotions += sign * o.demotions
}

func readNode(n *core.Node) nodeCounters {
	ds := n.Directory().Stats()
	ts := n.DataStats()
	cs := n.CacheStats()
	c := nodeCounters{
		dirCalls:    ds.Calls,
		wireFrames:  ds.Wire.Frames,
		wireFlushes: ds.Wire.Flushes,
		wireBytes:   ds.Wire.Bytes,
		pulls:       ts.Pulls,
		rangedPulls: ts.RangedPulls,
		cacheHits:   cs.Hits,
		cacheMisses: cs.Misses,
		cacheStale:  cs.Stale,
		demotions:   n.Store().Demotions(),
	}
	for _, p := range n.PeerDataStats() {
		c.sentBytes += p.Bytes
	}
	return c
}

// counterWindow diffs node counters over a measured window in which nodes
// may be killed and restarted: a replaced node's final counters are kept
// (retire) so a restart does not make a sum go backwards.
type counterWindow struct {
	read    func(*core.Node) nodeCounters
	mu      sync.Mutex
	base    map[*core.Node]nodeCounters
	retired nodeCounters
	gone    map[*core.Node]bool
}

// newCounterWindow opens a window over nodes; read is readNode outside
// tests.
func newCounterWindow(nodes []*core.Node, read func(*core.Node) nodeCounters) *counterWindow {
	w := &counterWindow{read: read, base: make(map[*core.Node]nodeCounters), gone: make(map[*core.Node]bool)}
	for _, n := range nodes {
		if n != nil {
			w.base[n] = read(n)
		}
	}
	return w
}

// retire folds a node about to be replaced into the window.
func (w *counterWindow) retire(n *core.Node) {
	if w == nil || n == nil {
		return
	}
	c := w.read(n)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gone[n] {
		return
	}
	w.gone[n] = true
	w.retired.add(c, 1)
	w.retired.add(w.base[n], -1)
}

// delta returns the counters accumulated since the window opened.
func (w *counterWindow) delta(nodes []*core.Node) nodeCounters {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.retired
	for _, n := range nodes {
		if n == nil || w.gone[n] {
			continue
		}
		d.add(w.read(n), 1)
		d.add(w.base[n], -1) // zero for nodes started inside the window
	}
	return d
}

// runtimeCounters are process-wide Go runtime and OS counters.
type runtimeCounters struct {
	cpu        time.Duration // user + system CPU time
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc := runtimeCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rc.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return rc
}

func (r runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		cpu:        r.cpu - o.cpu,
		mallocs:    r.mallocs - o.mallocs,
		allocBytes: r.allocBytes - o.allocBytes,
		gcPause:    r.gcPause - o.gcPause,
	}
}

// heapSampler tracks the peak live heap over a window without stopping
// the world (runtime/metrics reads are concurrent).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// heapMetric is the heap the last GC found live: unlike the instantaneous
// heap it does not depend on where a sample falls in the GC cycle.
const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
