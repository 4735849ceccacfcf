package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"hoplite"
	"hoplite/internal/buffer"
	"hoplite/internal/core"
	"hoplite/internal/directory"
	"hoplite/internal/transport"
)

const (
	probeEvery   = 25 * time.Millisecond
	afterProbes  = 10 // store creates, pulls and reduces after the traced window
	probeTimeout = 2 * time.Second
	echoSize     = 64
	streamSize   = 4 << 20
	pullSize     = 1 << 20
	reduceProbe  = 64 << 10
)

// fabricProbe is a pair of spare endpoints on the workload's own fabric:
// an echo for round-trip time and a sink for streaming throughput. It
// calibrates the instrument, so a fabric change is not read as a Hoplite
// change.
type fabricProbe struct {
	ln   net.Listener
	echo net.Conn
	wg   sync.WaitGroup
}

func startFabricProbe(ctx context.Context, b *bench) (*fabricProbe, error) {
	ln, err := b.fab.Listen("probe-server")
	if err != nil {
		return nil, fmt.Errorf("fabric probe listen: %w", err)
	}
	p := &fabricProbe{ln: ln}
	p.wg.Add(1)
	go p.serve()
	if p.echo, err = p.dial(ctx, b, 'e'); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *fabricProbe) dial(ctx context.Context, b *bench, mode byte) (net.Conn, error) {
	conn, err := b.fab.Dial(ctx, "probe-client", p.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("fabric probe dial: %w", err)
	}
	if _, err := conn.Write([]byte{mode}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("fabric probe dial: %w", err)
	}
	return conn, nil
}

// serve accepts probe connections until the listener closes: mode 'e'
// echoes 64 B messages, mode 's' drains a length-prefixed stream and acks.
func (p *fabricProbe) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer conn.Close()
			var mode [1]byte
			if _, err := io.ReadFull(conn, mode[:]); err != nil {
				return
			}
			buf := make([]byte, 64<<10)
			for {
				if mode[0] == 'e' {
					if _, err := io.ReadFull(conn, buf[:echoSize]); err != nil {
						return
					}
					if _, err := conn.Write(buf[:echoSize]); err != nil {
						return
					}
					continue
				}
				if _, err := io.ReadFull(conn, buf[:8]); err != nil {
					return
				}
				if _, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint64(buf))); err != nil {
					return
				}
				if _, err := conn.Write(buf[:1]); err != nil {
					return
				}
			}
		}()
	}
}

// rtt times one 64 B echo.
func (p *fabricProbe) rtt() (time.Duration, error) {
	var msg [echoSize]byte
	t0 := time.Now()
	if _, err := p.echo.Write(msg[:]); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(p.echo, msg[:]); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// stream times a 4 MB transfer to the sink and returns MB/s.
func (p *fabricProbe) stream(ctx context.Context, b *bench) (float64, error) {
	conn, err := p.dial(ctx, b, 's')
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	payload := make([]byte, 8+streamSize)
	binary.LittleEndian.PutUint64(payload, streamSize)
	t0 := time.Now()
	if _, err := conn.Write(payload); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(conn, payload[:1]); err != nil {
		return 0, err
	}
	return streamSize / 1e6 / time.Since(t0).Seconds(), nil
}

func (p *fabricProbe) close() {
	p.ln.Close()
	if p.echo != nil {
		p.echo.Close()
	}
	p.wg.Wait()
}

// layerProbes time single calls into the layers below core. Probes that
// change no node state (the fabric echo, a directory lookup through the
// probe's own client) run at a low rate during the traced window; probes
// that allocate or move data on the nodes (store creates, transport pulls,
// reduces, a rejoin) run after the window and the drain, on the idle
// cluster, so they neither enter the window's counters nor displace the
// workload's objects.
type layerProbes struct {
	b     *bench
	fp    *fabricProbe
	dir   *directory.Client // the probe's own directory client
	obj   hoplite.ObjectID  // resident 1 MB object on node 0, which no workload kills
	small hoplite.ObjectID  // 1 KB object on node 0, read by a restarted node
	stop  chan struct{}
	done  chan struct{}

	mu                                           sync.Mutex
	rtt, lookup, create, pull, reduce, reduceLoc []float64
	streams                                      []float64         // MB/s, before and after the traced window
	errors                                       map[string]int    // by probe
	firstErr                                     map[string]string // by probe
	mismatches                                   int
}

// startProbes opens the fabric endpoints, places the probe objects, takes
// the first stream sample and starts the in-window probe loop.
func startProbes(b *bench) (*layerProbes, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fp, err := startFabricProbe(ctx, b)
	if err != nil {
		return nil, err
	}
	lp := &layerProbes{
		b: b, fp: fp, obj: b.oid("probe/pull"), small: b.oid("probe/rejoin"),
		errors: make(map[string]int), firstErr: make(map[string]string),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	cm := b.live().Directory().Map()
	lp.dir = directory.NewReplicatedClient("perfbench-probe", cm.DeriveGroups(), func(ctx context.Context, addr string) (net.Conn, error) {
		return dialPlane(ctx, b.fab, "probe-client", addr, magicCtrl)
	})
	lp.dir.InstallMap(cm)
	err = b.live().Put(ctx, lp.obj, b.content("probe/pull", make([]byte, pullSize)))
	if err == nil {
		err = b.live().Put(ctx, lp.small, b.content("probe/rejoin", make([]byte, 1024)))
	}
	if err != nil {
		lp.dir.Close()
		fp.close()
		return nil, fmt.Errorf("place probe objects: %w", err)
	}
	lp.stream(ctx)
	go lp.loop()
	return lp, nil
}

func (lp *layerProbes) stream(ctx context.Context) {
	s, err := lp.fp.stream(ctx, lp.b)
	if err == nil {
		lp.streams = append(lp.streams, s)
	}
	lp.count("stream", err)
}

func (lp *layerProbes) loop() {
	defer close(lp.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for k := 0; ; k++ {
		select {
		case <-lp.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		var err error
		name := "rtt"
		if k%2 == 0 {
			err = lp.time(&lp.rtt, func() error { _, e := lp.fp.rtt(); return e })
		} else {
			name = "lookup"
			lp.dir.InstallMap(lp.b.live().Directory().Map()) // follow restarts and failovers
			err = lp.time(&lp.lookup, func() error { _, e := lp.dir.Lookup(ctx, lp.obj, false); return e })
		}
		cancel()
		lp.count(name, err)
	}
}

func (lp *layerProbes) count(probe string, err error) {
	if err == nil {
		return
	}
	lp.mu.Lock()
	if lp.errors[probe]++; lp.errors[probe] == 1 {
		lp.firstErr[probe] = err.Error()
	}
	if errors.Is(err, errMismatch) {
		lp.mismatches++
	}
	lp.mu.Unlock()
}

// halt stops the in-window probe loop.
func (lp *layerProbes) halt() {
	close(lp.stop)
	<-lp.done
	lp.dir.Close()
}

// afterWindow runs the probes that change node state on the idle cluster,
// once the window's counters are read and the workload drained: store
// creates, pulls of the resident object, reduces, and on a workload with no
// restart in the window one kill and rejoin. It then takes the second
// stream sample and releases the probes' objects and endpoints.
func (lp *layerProbes) afterWindow(ctx context.Context) {
	b := lp.b
	probe := func(name string, fn func(context.Context) error) {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		defer cancel()
		lp.count(name, fn(pctx))
	}
	for k := 0; k < afterProbes; k++ {
		probe("store-create", func(context.Context) error { return lp.time(&lp.create, lp.storeCreate) })
		probe("pull", lp.pullOnce)
		probe("reduce-local", func(ctx context.Context) error { return lp.reduceOnce(ctx, k, true) })
		if !b.wl.reduces {
			probe("reduce", func(ctx context.Context) error { return lp.reduceOnce(ctx, k, false) })
		}
	}
	if len(b.rec.samples["rejoin"]) == 0 {
		last := b.wl.nodes - 1
		err := b.c.KillNode(last)
		if err == nil {
			err = b.restart(ctx, last, lp.small)
		}
		lp.count("rejoin", err)
	}
	lp.stream(ctx)
	for _, oid := range []hoplite.ObjectID{lp.obj, lp.small} {
		_ = b.live().Delete(ctx, oid) // best effort; residue metrics report what stays
	}
	lp.fp.close()
}

func (lp *layerProbes) time(into *[]float64, fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	d := time.Since(t0)
	lp.mu.Lock()
	*into = append(*into, ms(d))
	lp.mu.Unlock()
	return nil
}

// storeCreate allocates and deletes a scratch object in node 0's store.
func (lp *layerProbes) storeCreate() error {
	oid := hoplite.RandomObjectID()
	st := lp.b.live().Store()
	if _, err := st.Create(oid, pullSize, false); err != nil {
		return err
	}
	st.Delete(oid)
	return nil
}

// pullOnce times a pull of the resident object straight from node 0's
// data plane, then checks the bytes.
func (lp *layerProbes) pullOnce(ctx context.Context) error {
	dst := buffer.New(pullSize)
	dial := func(ctx context.Context) (net.Conn, error) {
		return dialPlane(ctx, lp.b.fab, "probe-client", lp.b.live().Addr(), magicData)
	}
	err := lp.time(&lp.pull, func() error {
		if err := transport.Pull(ctx, dial, "perfbench-probe", lp.obj, 0, dst); err != nil {
			return err
		}
		return dst.WaitComplete(ctx)
	})
	if err != nil {
		return err
	}
	if string(dst.Bytes()) != string(lp.b.content("probe/pull", make([]byte, pullSize))) {
		return fmt.Errorf("%w: pull probe", errMismatch)
	}
	return nil
}

// reduceOnce sums two 64 KB F32 vectors: both on the reducer (local) or
// on two other nodes (remote), and checks the result.
func (lp *layerProbes) reduceOnce(ctx context.Context, k int, local bool) error {
	b := lp.b
	nodes := b.c.Nodes()
	reducer := nodes[0]
	holders := []*core.Node{nodes[1], nodes[2]}
	into := &lp.reduce
	if local {
		holders = []*core.Node{reducer, reducer}
		into = &lp.reduceLoc
	}
	vec := make([]byte, reduceProbe)
	for j := 0; j < reduceProbe; j += 4 {
		binary.LittleEndian.PutUint32(vec[j:], math.Float32bits(float32(j%251)))
	}
	key := fmt.Sprintf("probe/reduce/%v/%d", local, k) // never reuse a deleted id
	srcs := []hoplite.ObjectID{b.oid(key + "/0"), b.oid(key + "/1")}
	target := b.oid(key + "/sum")
	defer func() {
		for _, oid := range append(srcs, target) {
			_ = reducer.Delete(ctx, oid) // best effort; residue metrics report what stays
		}
	}()
	for i, h := range holders {
		if err := h.Put(ctx, srcs[i], vec); err != nil {
			return err
		}
	}
	err := lp.time(into, func() error {
		_, err := reducer.Reduce(ctx, target, srcs, 2, hoplite.SumF32)
		return err
	})
	if err != nil {
		return err
	}
	got, err := reducer.Get(ctx, target)
	if err != nil {
		return err
	}
	for j := 0; j < reduceProbe; j += 4 {
		if math.Float32frombits(binary.LittleEndian.Uint32(got[j:])) != 2*float32(j%251) {
			return fmt.Errorf("%w: reduce probe %d", errMismatch, k)
		}
	}
	return nil
}
