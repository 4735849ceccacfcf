package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"reflect"
	"sync"
	"time"

	"hoplite"
	paperbench "hoplite/internal/bench"
	"hoplite/internal/core"
	"hoplite/internal/netem"
)

// errMismatch marks an output that arrived but held the wrong bytes.
var errMismatch = errors.New("output mismatch")

// errNodeDown marks a read that could not start: its node's slot is empty
// because a restart failed.
var errNodeDown = errors.New("node down")

// generator is one workload's load generator. step runs one top-level,
// closed-loop operation for a client; the harness times it, applies the
// deadline and counts its failure.
type generator interface {
	warm(ctx context.Context) error
	step(o *op, client int) error
	drain(ctx context.Context) error
}

// workload is a named cluster shape plus the generator that loads it.
type workload struct {
	name    string
	nodes   int
	clients int
	// deadline bounds one top-level operation; an op that overruns it
	// counts as failed.
	deadline time.Duration
	// spill caps every node's memory at 8 MiB and spills to the boot's
	// scratch directory; otherwise the default options apply.
	spill  bool
	newGen func(b *bench) generator
	// primary names the per-workload latency that op_ms reports.
	primary string
	// reduces reports whether the workload issues Reduce calls itself.
	reduces bool
}

// recorder accumulates one window's outcomes; both clients share it.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64 // latency samples (ms) by name
	attempted int
	failed    int
	failures  map[string]int // by kind: error, timeout, mismatch
	goodBytes int64          // verified bytes of completed ops
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64), failures: make(map[string]int)}
}

func (r *recorder) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], ms(d))
	r.mu.Unlock()
}

// done records the outcome of one top-level operation that delivered
// bytes of verified payload.
func (r *recorder) done(err error, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		r.goodBytes += bytes
		return
	}
	r.failed++
	switch {
	case errors.Is(err, errMismatch):
		r.failures["mismatch"]++
	case errors.Is(err, context.DeadlineExceeded):
		r.failures["timeout"]++
	default:
		r.failures["error"]++
	}
}

// bench is one booted cluster and the state the workload keeps on it.
type bench struct {
	wl   *workload
	seed int64
	c    *hoplite.Cluster
	fab  *netem.Emulated
	link netem.LinkConfig
	dir  string
	gen  generator

	// Set before a window's client goroutines start, read by them.
	rec *recorder
	tr  *tracer
	cw  *counterWindow

	mu       sync.Mutex
	orphans  []*hoplite.RefFuture // abandoned Gets whose refs must still be released
	leftover []hoplite.ObjectID   // objects a failed op could not delete
}

// boot starts the workload's cluster and warms it up.
func boot(wl *workload, seed int64, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var opts hoplite.Options
	if wl.spill {
		opts.MemoryLimit, opts.SpillDir = 8<<20, dir
	}
	// Every workload runs on the paper-figure harness's default emulated
	// link, 64 MB/s per node and 200 µs one way: on plain loopback TCP a
	// workload is CPU-bound, and on a shared host its medians drift by more
	// than any bound the benchmark may set.
	b := &bench{wl: wl, seed: seed, dir: dir, rec: newRecorder(), link: paperbench.DefaultScale().Link()}
	opts.Emulate = &b.link
	c, err := hoplite.StartLocalCluster(wl.nodes, opts)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", wl.name, err)
	}
	b.c, b.fab = c, c.Emulated()
	b.gen = wl.newGen(b)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b.gen.warm(ctx); err != nil {
		b.close()
		return nil, fmt.Errorf("warm %s: %w", wl.name, err)
	}
	return b, nil
}

func (b *bench) close() {
	b.c.Close()
	os.RemoveAll(b.dir)
}

// oid names an object by its key, scoped to the run's seed.
func (b *bench) oid(key string) hoplite.ObjectID {
	return hoplite.ObjectIDFromString(fmt.Sprintf("perfbench/%d/%s", b.seed, key))
}

// stream returns the deterministic generator for key's contents.
func (b *bench) stream(key string) *splitmix {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &splitmix{s: h.Sum64() ^ uint64(b.seed)*0x9E3779B97F4A7C15}
}

// content fills p with key's deterministic contents and returns it.
func (b *bench) content(key string, p []byte) []byte {
	g := b.stream(key)
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], g.next())
	}
	for v := g.next(); i < len(p); i++ {
		p[i] = byte(v)
		v >>= 8
	}
	return p
}

// splitmix is SplitMix64, a small fast deterministic generator.
type splitmix struct{ s uint64 }

func (g *splitmix) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (b *bench) orphan(f *hoplite.RefFuture) {
	b.mu.Lock()
	b.orphans = append(b.orphans, f)
	b.mu.Unlock()
}

func (b *bench) leave(oids ...hoplite.ObjectID) {
	b.mu.Lock()
	b.leftover = append(b.leftover, oids...)
	b.mu.Unlock()
}

// reap releases the refs of abandoned Gets that have resolved since, so a
// long run does not hold on to them (or, through them, to closed nodes).
func (b *bench) reap() {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.orphans[:0]
	for _, f := range b.orphans {
		select {
		case <-f.Done():
			if ref, err := f.Await(context.Background()); err == nil {
				ref.Release()
			}
		default:
			kept = append(kept, f)
		}
	}
	b.orphans = kept
}

// cleanup releases refs of abandoned Gets and deletes what failed ops left.
func (b *bench) cleanup(ctx context.Context) {
	b.mu.Lock()
	orphans, leftover := b.orphans, b.leftover
	b.orphans, b.leftover = nil, nil
	b.mu.Unlock()
	for _, f := range orphans {
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		if ref, err := f.Await(wctx); err == nil {
			ref.Release()
		}
		cancel()
	}
	if n := b.live(); n != nil {
		for _, oid := range leftover {
			_ = n.Delete(ctx, oid) // best effort; residue metrics report what stays
		}
	}
}

// restart replaces killed node i with a fresh one and times its rejoin:
// from RestartNode to the node's first successful Get of probe, a small
// object on a node that stays up. A failed RestartNode leaves the slot
// nil, so it is retried until ctx ends.
func (b *bench) restart(ctx context.Context, i int, probe hoplite.ObjectID) error {
	b.cw.retire(b.c.Node(i))
	t0 := time.Now()
	for {
		err := b.c.RestartNode(i)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return fmt.Errorf("restart node %d: %w", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n := b.c.Node(i)
	for {
		_, err := n.Get(ctx, probe)
		if err == nil {
			b.rec.sample("rejoin", time.Since(t0))
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("rejoin node %d: %w", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// live returns node 0, which no workload kills.
func (b *bench) live() *core.Node { return b.c.Node(0) }

// op is one top-level operation in flight: its context carries the
// deadline, and every layer call it makes is recorded as its child span.
type op struct {
	ctx   context.Context
	id    int64
	b     *bench
	bytes int64 // verified payload bytes delivered so far
}

// good counts n payload bytes that reached a reader and were verified.
func (o *op) good(n int) { o.bytes += int64(n) }

// runOp executes one top-level operation under the workload's deadline.
func (b *bench) runOp(client int) {
	ctx, cancel := context.WithTimeout(context.Background(), b.wl.deadline)
	o := &op{ctx: ctx, id: b.tr.newID(), b: b}
	t0 := time.Now()
	err := b.gen.step(o, client)
	end := time.Now()
	cancel()
	b.tr.record(o.id, 0, "op", t0, end)
	b.rec.done(err, o.bytes)
	b.reap()
}

func (o *op) span(name string, t0 time.Time) { o.b.tr.record(0, o.id, name, t0, time.Now()) }

func (o *op) put(n *core.Node, oid hoplite.ObjectID, data []byte) error {
	t0 := time.Now()
	err := n.Put(o.ctx, oid, data)
	o.span("core.put", t0)
	return err
}

func (o *op) get(n *core.Node, oid hoplite.ObjectID) ([]byte, error) {
	t0 := time.Now()
	v, err := n.Get(o.ctx, oid)
	o.span("core.get", t0)
	return v, err
}

func (o *op) getAll(n *core.Node, oids []hoplite.ObjectID) ([][]byte, error) {
	t0 := time.Now()
	v, err := n.GetAll(o.ctx, oids)
	o.span("core.get", t0)
	return v, err
}

func (o *op) del(n *core.Node, oid hoplite.ObjectID) error {
	t0 := time.Now()
	err := n.Delete(o.ctx, oid)
	o.span("core.delete", t0)
	return err
}

// delAll deletes oids from n, handing any it cannot delete to the drain.
func (o *op) delAll(n *core.Node, oids ...hoplite.ObjectID) error {
	var first error
	for i, oid := range oids {
		if o.ctx.Err() != nil {
			o.b.leave(oids[i:]...)
			return o.ctx.Err()
		}
		if err := o.del(n, oid); err != nil {
			o.b.leave(oid)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

func (o *op) reduce(n *core.Node, target hoplite.ObjectID, srcs []hoplite.ObjectID) error {
	t0 := time.Now()
	_, err := n.Reduce(o.ctx, target, srcs, len(srcs), hoplite.SumF32)
	o.span("core.reduce", t0)
	return err
}

// fetch is one receiver's outcome in a fan-out Get.
type fetch struct {
	ref *hoplite.ObjectRef
	err error
	at  time.Time // when the Get resolved
}

// fanout starts an async GetRef of oid on every node and waits for each,
// in completion order, so every receiver gets its own finish time. skip
// (a killed receiver, or -1) is started like the rest but not waited for.
func (o *op) fanout(nodes []*core.Node, oid hoplite.ObjectID, skip int) []fetch {
	t0 := time.Now()
	futs := make([]*hoplite.RefFuture, len(nodes))
	for i, n := range nodes {
		futs[i] = getRefAsync(o.ctx, n, oid)
	}
	return o.await(futs, t0, skip)
}

// getRefAsync starts a GetRef of oid on n; a nil n (a node whose restart
// failed) gives a nil future, which await reports as errNodeDown.
func getRefAsync(ctx context.Context, n *core.Node, oid hoplite.ObjectID) *hoplite.RefFuture {
	if n == nil {
		return nil
	}
	return n.GetRefAsync(ctx, oid)
}

// await collects futs as they resolve; see fanout. A nil future fails at
// once with errNodeDown.
func (o *op) await(futs []*hoplite.RefFuture, t0 time.Time, skip int) []fetch {
	out := make([]fetch, len(futs))
	cases := make([]reflect.SelectCase, len(futs)+1)
	pending := 0
	for i, f := range futs {
		cases[i].Dir = reflect.SelectRecv // a zero Chan is never selected
		if f == nil {
			if i != skip {
				out[i] = fetch{err: errNodeDown, at: time.Now()}
			}
			continue
		}
		if i == skip {
			o.b.orphan(f)
			continue
		}
		cases[i].Chan = reflect.ValueOf(f.Done())
		pending++
	}
	cases[len(futs)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(o.ctx.Done())}
	for pending > 0 {
		i, _, _ := reflect.Select(cases)
		if i == len(futs) {
			for j, c := range cases[:len(futs)] {
				if c.Chan.IsValid() {
					out[j] = fetch{err: o.ctx.Err(), at: time.Now()}
					o.b.orphan(futs[j])
				}
			}
			return out
		}
		ref, err := futs[i].Await(o.ctx)
		out[i] = fetch{ref: ref, err: err, at: time.Now()}
		o.b.tr.record(0, o.id, "core.get", t0, out[i].at)
		cases[i].Chan = reflect.Value{}
		pending--
	}
	return out
}

// check compares every fetched ref with want byte for byte, releases the
// refs, counts verified bytes, and returns the last completion time.
func (o *op) check(fs []fetch, want []byte, skip int) (time.Time, error) {
	var last time.Time
	var first error
	for i, f := range fs {
		if i == skip {
			continue
		}
		switch {
		case f.err != nil:
			if first == nil {
				first = f.err
			}
		case !bytes.Equal(f.ref.Bytes(), want):
			if first == nil {
				first = fmt.Errorf("%w: %v on receiver %d", errMismatch, f.ref.OID(), i)
			}
		default:
			o.good(len(want))
		}
		if f.ref != nil {
			f.ref.Release()
		}
		if f.at.After(last) {
			last = f.at
		}
	}
	return last, first
}

// Plane-select bytes: a node routes an accepted connection by its first
// byte (mirrors internal/core).
const (
	magicCtrl byte = 0xC1
	magicData byte = 0xD1
)

// dialPlane connects to a node's listener on fab and selects a plane.
func dialPlane(ctx context.Context, fab *netem.Emulated, from, addr string, magic byte) (net.Conn, error) {
	conn, err := fab.Dial(ctx, from, addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte{magic}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
