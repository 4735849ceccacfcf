package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hoplite"
	"hoplite/internal/core"
)

const (
	bcastSize  = 4 << 20 // collective and bcast-fault broadcast object
	gradSize   = 1 << 20 // collective allreduce vector (F32)
	queryInput = 16 << 10
	kvSmall    = 1 << 10
	kvLarge    = 1 << 20
	kvWindow   = 256 // live keys per kv-spill client
	killAfter  = 30 * time.Millisecond
)

// workloads are the benchmark's named workloads; later changes cite them
// by these names.
var workloads = map[string]*workload{
	"collective": {
		name: "collective", nodes: 8, clients: 1,
		deadline: 10 * time.Second,
		newGen:   func(b *bench) generator { return &collective{b: b} },
		primary:  "allreduce",
		reduces:  true,
	},
	"serve": {
		name: "serve", nodes: 8, clients: 2,
		deadline: 5 * time.Second,
		newGen:   func(b *bench) generator { return &serve{b: b} },
		primary:  "query",
	},
	"kv-spill": {
		name: "kv-spill", nodes: 4, clients: 2,
		deadline: 5 * time.Second,
		spill:    true,
		newGen:   newKV,
		primary:  "get",
	},
	"bcast-fault": {
		name: "bcast-fault", nodes: 8, clients: 1,
		// About five times a fault round (Put, Gets, Delete, restart and
		// rejoin take ~200 ms), so a survivor Get that stalls costs the
		// window one second, not five.
		deadline: time.Second,
		newGen:   func(b *bench) generator { return &bcastFault{b: b, rng: rand.New(rand.NewSource(b.seed))} },
		primary:  "fault_bcast",
	},
}

func except(nodes []*core.Node, skip int) []*core.Node {
	out := make([]*core.Node, 0, len(nodes)-1)
	for i, n := range nodes {
		if i != skip {
			out = append(out, n)
		}
	}
	return out
}

// warmRounds runs a generator's own step a few times, untimed, so the first
// dial on every control and data connection happens during set-up.
func warmRounds(ctx context.Context, b *bench, rounds int) error {
	for i := 0; i < rounds; i++ {
		for c := 0; c < b.wl.clients; c++ {
			o := &op{ctx: ctx, b: b}
			if err := b.gen.step(o, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// collective: a rotating root broadcasts 4 MB to the other seven nodes,
// then all eight allreduce a 1 MB F32 vector.
type collective struct {
	b     *bench
	round int
	data  []byte
	grads [][]byte
	want  []byte
	sum   []float32
}

func (d *collective) warm(ctx context.Context) error {
	d.data = make([]byte, bcastSize)
	d.want = make([]byte, gradSize)
	d.sum = make([]float32, gradSize/4)
	for range d.b.c.Nodes() {
		d.grads = append(d.grads, make([]byte, gradSize))
	}
	return warmRounds(ctx, d.b, 2)
}

func (d *collective) step(o *op, _ int) error {
	b, r := d.b, d.round
	d.round++
	nodes := b.c.Nodes()
	root := r % len(nodes)

	key := fmt.Sprintf("collective/bcast/%d", r)
	oid := b.oid(key)
	b.content(key, d.data)
	t0 := time.Now()
	if err := o.put(nodes[root], oid, d.data); err != nil {
		b.leave(oid)
		return err
	}
	last, err := o.check(o.fanout(except(nodes, root), oid, -1), d.data, -1)
	if derr := o.delAll(nodes[root], oid); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	b.rec.sample("bcast", last.Sub(t0))

	srcs := make([]hoplite.ObjectID, len(nodes))
	for i := range d.sum {
		d.sum[i] = 0
	}
	for i := range nodes {
		g := b.stream(fmt.Sprintf("collective/grad/%d/%d", r, i))
		for j := range d.sum {
			v := float32(g.next() % 1024) // small integers: F32 sums stay exact
			binary.LittleEndian.PutUint32(d.grads[i][4*j:], math.Float32bits(v))
			d.sum[j] += v
		}
		srcs[i] = b.oid(fmt.Sprintf("collective/grad/%d/%d", r, i))
	}
	for j, v := range d.sum {
		binary.LittleEndian.PutUint32(d.want[4*j:], math.Float32bits(v))
	}
	target := b.oid(fmt.Sprintf("collective/sum/%d", r))
	t1 := time.Now()
	for i, n := range nodes {
		if err = o.put(n, srcs[i], d.grads[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = o.reduce(nodes[root], target, srcs)
	}
	if err == nil {
		last, err = o.check(o.fanout(nodes, target, -1), d.want, -1)
	}
	if derr := o.delAll(nodes[root], append(srcs, target)...); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	b.rec.sample("allreduce", last.Sub(t1))
	return nil
}

func (d *collective) drain(context.Context) error { return nil }

// serve: ensemble serving. A client Puts a 16 KB query input, six model
// nodes read it and each Put a one-byte vote, and the client gathers and
// deletes the votes.
type serve struct {
	b     *bench
	query [2]int
}

const serveModels = 6

func (d *serve) warm(ctx context.Context) error { return warmRounds(ctx, d.b, 2) }

// vote is model m's answer to input: a byte of the input it must have read.
func vote(input []byte, m int) byte { return input[(m*977)%len(input)] ^ byte(m) }

func (d *serve) step(o *op, client int) error {
	b := d.b
	q := d.query[client]
	d.query[client]++
	nodes := b.c.Nodes()
	front := nodes[client]
	models := nodes[len(nodes)-serveModels:]

	key := fmt.Sprintf("serve/%d/in/%d", client, q)
	in := b.content(key, make([]byte, queryInput)) // inline puts may retain the slice
	inOID := b.oid(key)
	t0 := time.Now()
	if err := o.put(front, inOID, in); err != nil {
		b.leave(inOID)
		return err
	}
	fs := o.fanout(models, inOID, -1)
	votes := make([]hoplite.ObjectID, 0, serveModels)
	var err error
	for m, f := range fs {
		if err == nil && f.err != nil {
			err = f.err
		}
		if f.ref == nil {
			continue
		}
		got := f.ref.Bytes()
		if err == nil && string(got) != string(in) {
			err = fmt.Errorf("%w: serve input %d on model %d", errMismatch, q, m)
		}
		if err == nil {
			o.good(len(got))
			v := b.oid(fmt.Sprintf("serve/%d/vote/%d/%d", client, q, m))
			if err = o.put(models[m], v, []byte{vote(got, m)}); err == nil {
				votes = append(votes, v)
			} else {
				b.leave(v)
			}
		}
		f.ref.Release()
	}
	if err == nil {
		var got [][]byte
		if got, err = o.getAll(front, votes); err == nil {
			for m, g := range got {
				if len(g) != 1 || g[0] != vote(in, m) {
					err = fmt.Errorf("%w: serve vote %d/%d", errMismatch, q, m)
					break
				}
				o.good(1)
			}
		}
	}
	if derr := o.delAll(front, append(votes, inOID)...); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	b.rec.sample("query", time.Since(t0))
	return nil
}

func (d *serve) drain(context.Context) error { return nil }

// kv-spill: two clients each keep a sliding window of 256 live keys and
// issue seeded 50/50 Puts and Gets on random nodes; 10% of values are
// 1 MB, so the working set exceeds the nodes' memory limit and spills.
// Every tenth key (from a seeded offset) is large, and every tenth Get
// reads a random large key while the others read random small ones, so
// reads follow the 90/10 mix exactly and goodput does not swing with a
// random draw of sizes.
type kv struct {
	b       *bench
	clients []*kvClient
}

type kvClient struct {
	rng     *rand.Rand
	next    int // next key number
	largeAt int // key numbers ≡ largeAt (mod 10) hold large values
	gets    int // every tenth Get reads a large value
	window  []kvKey
	large   []byte // reused: Put copies non-inline payloads into the store
}

type kvKey struct {
	key  string
	oid  hoplite.ObjectID
	size int
}

func newKV(b *bench) generator {
	d := &kv{b: b}
	for c := 0; c < b.wl.clients; c++ {
		rng := rand.New(rand.NewSource(b.seed*1000 + int64(c)))
		d.clients = append(d.clients, &kvClient{rng: rng, largeAt: rng.Intn(10), large: make([]byte, kvLarge)})
	}
	return d
}

// warm prefills every client's key window, each client on its own
// goroutine as in the measured window.
func (d *kv) warm(ctx context.Context) error {
	errs := make(chan error, len(d.clients))
	for c, cl := range d.clients {
		go func(c int, cl *kvClient) {
			var err error
			for err == nil && len(cl.window) < kvWindow {
				err = d.put(&op{ctx: ctx, b: d.b}, c, cl)
			}
			errs <- err
		}(c, cl)
	}
	var first error
	for range d.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *kv) step(o *op, client int) error {
	cl := d.clients[client]
	if cl.rng.Intn(2) == 0 {
		return d.put(o, client, cl)
	}
	return d.get(o, cl)
}

func (d *kv) node(cl *kvClient) *core.Node {
	nodes := d.b.c.Nodes()
	return nodes[cl.rng.Intn(len(nodes))]
}

func (d *kv) put(o *op, client int, cl *kvClient) error {
	b := d.b
	k := kvKey{key: fmt.Sprintf("kv/%d/%d", client, cl.next), size: kvSmall}
	if cl.next%10 == cl.largeAt {
		k.size = kvLarge
	}
	cl.next++
	k.oid = b.oid(k.key)
	var data []byte
	if k.size == kvLarge {
		data = b.content(k.key, cl.large)
	} else {
		data = b.content(k.key, make([]byte, k.size))
	}
	n := d.node(cl)
	t0 := time.Now()
	if err := o.put(n, k.oid, data); err != nil {
		b.leave(k.oid)
		return err
	}
	b.rec.sample("put", time.Since(t0))
	cl.window = append(cl.window, k)
	if len(cl.window) > kvWindow {
		old := cl.window[0]
		cl.window = cl.window[1:]
		return o.delAll(d.node(cl), old.oid)
	}
	return nil
}

func (d *kv) get(o *op, cl *kvClient) error {
	b := d.b
	wantLarge := cl.gets%10 == 0
	cl.gets++
	k := cl.window[cl.rng.Intn(len(cl.window))]
	for (k.size == kvLarge) != wantLarge {
		k = cl.window[cl.rng.Intn(len(cl.window))]
	}
	n := d.node(cl)
	t0 := time.Now()
	got, err := o.get(n, k.oid)
	if err != nil {
		return err
	}
	b.rec.sample("get", time.Since(t0))
	want := cl.large
	if k.size != kvLarge {
		want = make([]byte, k.size)
	}
	if string(b.content(k.key, want)) != string(got) {
		return fmt.Errorf("%w: %s", errMismatch, k.key)
	}
	o.good(len(got))
	return nil
}

// drain deletes every key still in a window.
func (d *kv) drain(ctx context.Context) error {
	n := d.b.live()
	for _, cl := range d.clients {
		for _, k := range cl.window {
			if err := n.Delete(ctx, k.oid); err != nil {
				return fmt.Errorf("drain %s: %w", k.key, err)
			}
		}
		cl.window = nil
	}
	return nil
}

// bcast-fault: node 0 broadcasts 4 MB to seven receivers; every other
// round a seeded receiver is killed 30 ms into the Gets and restarted
// after the round. Every node hosts a directory shard (R=3), so a kill
// also fails over the shards the victim hosted.
type bcastFault struct {
	b     *bench
	rng   *rand.Rand
	round int
	data  []byte
	probe hoplite.ObjectID // small object a restarted node must read
}

func (d *bcastFault) warm(ctx context.Context) error {
	d.data = make([]byte, bcastSize)
	d.probe = d.b.oid("bcast-fault/rejoin-probe")
	if err := d.b.live().Put(ctx, d.probe, d.b.content("bcast-fault/rejoin-probe", make([]byte, 1024))); err != nil {
		return err
	}
	// Only clean rounds: set-up must not depend on a kill's outcome.
	for i := 0; i < 2; i++ {
		if err := d.broadcast(&op{ctx: ctx, b: d.b}, -1); err != nil {
			return err
		}
	}
	return nil
}

func (d *bcastFault) step(o *op, _ int) error {
	victim := -1
	if d.round%2 == 1 {
		victim = pickVictim(d.rng, d.b.c.Nodes())
	}
	return d.broadcast(o, victim)
}

// pickVictim returns a seeded receiver (any node but 0) that is up, or -1
// when every receiver's slot is empty.
func pickVictim(rng *rand.Rand, nodes []*core.Node) int {
	var up []int
	for i, n := range nodes[1:] {
		if n != nil {
			up = append(up, i+1)
		}
	}
	if len(up) == 0 {
		return -1
	}
	return up[rng.Intn(len(up))]
}

// broadcast runs one round; victim < 0 is a clean round.
func (d *bcastFault) broadcast(o *op, victim int) error {
	b, r := d.b, d.round
	d.round++
	nodes := b.c.Nodes()
	key := fmt.Sprintf("bcast-fault/%d", r)
	oid := b.oid(key)
	b.content(key, d.data)
	t0 := time.Now()
	if err := o.put(nodes[0], oid, d.data); err != nil {
		b.leave(oid)
		return err
	}
	receivers := nodes[1:]
	skip := victim - 1
	tg := time.Now()
	futs := make([]*hoplite.RefFuture, len(receivers))
	for i, n := range receivers {
		futs[i] = getRefAsync(o.ctx, n, oid)
	}
	if victim > 0 {
		time.Sleep(time.Until(tg.Add(killAfter)))
		if err := b.c.KillNode(victim); err != nil {
			return err
		}
	}
	last, err := o.check(o.await(futs, tg, skip), d.data, skip)
	if derr := o.delAll(nodes[0], oid); err == nil {
		err = derr
	}
	if err == nil {
		if victim > 0 {
			b.rec.sample("fault_bcast", last.Sub(t0))
		} else {
			b.rec.sample("bcast", last.Sub(t0))
		}
	}
	if victim > 0 {
		if rerr := b.restart(o.ctx, victim, d.probe); err == nil {
			err = rerr
		}
	}
	return err
}

func (d *bcastFault) drain(ctx context.Context) error {
	return d.b.live().Delete(ctx, d.probe)
}
