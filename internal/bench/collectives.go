package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hoplite"
	"hoplite/internal/baseline"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

var sumF32 = types.ReduceOp{Kind: types.Sum, DType: types.F32}

// HopliteEnv is a reusable emulated Hoplite cluster for measurements.
type HopliteEnv struct {
	sc Scale
	C  *hoplite.Cluster
}

// NewHopliteEnv boots an n-node emulated cluster at the given scale.
// degree forces the reduce tree degree (0 = automatic; used by Fig 15).
func NewHopliteEnv(sc Scale, n, degree int) (*HopliteEnv, error) {
	link := sc.Link()
	c, err := hoplite.StartLocalCluster(n, hoplite.Options{
		Emulate:         &link,
		InlineThreshold: sc.SmallObject(),
		ReduceDegree:    degree,
		// Scale the pipelining block with the object sizes: the paper's
		// 4 MB block assumes ≥32 MB objects; scaled-down objects need a
		// proportionally finer block or chain pipelining degenerates to
		// store-and-forward.
		PipelineBlock: sc.PipelineBlock(),
	})
	if err != nil {
		return nil, err
	}
	return &HopliteEnv{sc: sc, C: c}, nil
}

// Close shuts the cluster down.
func (e *HopliteEnv) Close() { e.C.Close() }

func benchData(size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

func ctxTO() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Minute)
}

// P2P measures round-trip time: node 0 sends an object to node 1, which
// replies with an equally sized object (Figure 6).
func (e *HopliteEnv) P2P(size int64) (time.Duration, error) {
	ctx, cancel := ctxTO()
	defer cancel()
	data := benchData(size)
	x, y := hoplite.RandomObjectID(), hoplite.RandomObjectID()
	t0 := time.Now()
	if err := e.C.Node(0).Put(ctx, x, data); err != nil {
		return 0, err
	}
	got, err := e.C.Node(1).GetImmutable(ctx, x)
	if err != nil {
		return 0, err
	}
	if err := e.C.Node(1).Put(ctx, y, got); err != nil {
		return 0, err
	}
	if _, err := e.C.Node(0).GetImmutable(ctx, y); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	e.C.Node(0).Delete(ctx, x)
	e.C.Node(0).Delete(ctx, y)
	return d, nil
}

// Broadcast measures one Put on node 0 followed by a Get on every other
// node; arrive staggers the receivers (Figure 7 top row, Figure 8a).
func (e *HopliteEnv) Broadcast(size int64, arrive []time.Duration) (time.Duration, error) {
	ctx, cancel := ctxTO()
	defer cancel()
	data := benchData(size)
	oid := hoplite.RandomObjectID()
	if err := e.C.Node(0).Put(ctx, oid, data); err != nil {
		return 0, err
	}
	n := e.C.Size()
	var wg sync.WaitGroup
	errc := make(chan error, n)
	t0 := time.Now()
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if arrive != nil && arrive[i] > 0 {
				time.Sleep(arrive[i])
			}
			_, err := e.C.Node(i).GetImmutable(ctx, oid)
			errc <- err
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	close(errc)
	for err := range errc {
		if err != nil {
			return 0, err
		}
	}
	e.C.Node(0).Delete(ctx, oid)
	return d, nil
}

// Gather measures node 0 fetching one object from every node (Figure 7).
func (e *HopliteEnv) Gather(size int64) (time.Duration, error) {
	ctx, cancel := ctxTO()
	defer cancel()
	data := benchData(size)
	n := e.C.Size()
	oids := make([]hoplite.ObjectID, n)
	for i := 0; i < n; i++ {
		oids[i] = hoplite.RandomObjectID()
		if err := e.C.Node(i).Put(ctx, oids[i], data); err != nil {
			return 0, err
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, n)
	t0 := time.Now()
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.C.Node(0).GetImmutable(ctx, oids[i])
			errc <- err
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	close(errc)
	for err := range errc {
		if err != nil {
			return 0, err
		}
	}
	for i := 0; i < n; i++ {
		e.C.Node(0).Delete(ctx, oids[i])
	}
	return d, nil
}

// Reduce measures a Reduce over one object per node, coordinated and
// fetched by node 0. arrive staggers the Puts (Figure 8b): latency runs
// from the Reduce call, issued at time zero.
func (e *HopliteEnv) Reduce(size int64, arrive []time.Duration) (time.Duration, error) {
	d, _, err := e.reduce(size, arrive, false)
	return d, err
}

// AllReduce measures Reduce followed by every node fetching the result
// (§3.4.3); latency runs to the last node holding the result.
func (e *HopliteEnv) AllReduce(size int64, arrive []time.Duration) (time.Duration, error) {
	d, _, err := e.reduce(size, arrive, true)
	return d, err
}

func (e *HopliteEnv) reduce(size int64, arrive []time.Duration, bcast bool) (time.Duration, hoplite.ObjectID, error) {
	ctx, cancel := ctxTO()
	defer cancel()
	data := benchData(size)
	n := e.C.Size()
	oids := make([]hoplite.ObjectID, n)
	for i := range oids {
		oids[i] = hoplite.RandomObjectID()
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2*n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if arrive == nil || arrive[i] <= 0 {
			if err := e.C.Node(i).Put(ctx, oids[i], data); err != nil {
				return 0, hoplite.ObjectID{}, err
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(arrive[i])
			errc <- e.C.Node(i).Put(ctx, oids[i], data)
		}(i)
	}
	target := hoplite.RandomObjectID()
	if _, err := e.C.Node(0).Reduce(ctx, target, oids, n, sumF32); err != nil {
		return 0, target, err
	}
	if bcast {
		var bwg sync.WaitGroup
		for i := 0; i < n; i++ {
			bwg.Add(1)
			go func(i int) {
				defer bwg.Done()
				errc <- e.C.Node(i).WaitLocal(ctx, target)
			}(i)
		}
		bwg.Wait()
	} else {
		if err := e.C.Node(0).WaitLocal(ctx, target); err != nil {
			return 0, target, err
		}
	}
	d := time.Since(t0)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return 0, target, err
		}
	}
	e.C.Node(0).Delete(ctx, target)
	for i := 0; i < n; i++ {
		e.C.Node(0).Delete(ctx, oids[i])
	}
	return d, target, nil
}

// MeshEnv is a reusable emulated rank mesh for the MPI/Gloo/Ray/Dask
// baselines.
type MeshEnv struct {
	sc  Scale
	fab *netem.Emulated
	M   *baseline.Mesh
}

// NewMeshEnv builds an n-rank emulated mesh at the given scale.
func NewMeshEnv(sc Scale, n int) (*MeshEnv, error) {
	fab := netem.NewEmulated(sc.Link())
	m, err := baseline.NewMesh(fab, n, "rank")
	if err != nil {
		fab.Close()
		return nil, err
	}
	return &MeshEnv{sc: sc, fab: fab, M: m}, nil
}

// Close tears the mesh down.
func (e *MeshEnv) Close() {
	e.M.Close()
	e.fab.Close()
}

// Run executes fn on every rank concurrently (staggered by arrive) and
// returns the time until the last rank finishes.
func (e *MeshEnv) Run(arrive []time.Duration, fn func(r *baseline.Rank) error) (time.Duration, error) {
	n := e.M.Size()
	var wg sync.WaitGroup
	errc := make(chan error, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if arrive != nil && arrive[i] > 0 {
				time.Sleep(arrive[i])
			}
			errc <- fn(e.M.Rank(i))
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	close(errc)
	for err := range errc {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// MPIP2P measures a ping-pong round trip between ranks 0 and 1.
func (e *MeshEnv) MPIP2P(size int64) (time.Duration, error) {
	data := benchData(size)
	echo := make([]byte, size)
	return e.Run(nil, func(r *baseline.Rank) error {
		switch r.ID() {
		case 0:
			if err := r.Send(1, data); err != nil {
				return err
			}
			return r.Recv(1, echo)
		case 1:
			buf := make([]byte, size)
			if err := r.Recv(0, buf); err != nil {
				return err
			}
			return r.Send(0, buf)
		default:
			return nil
		}
	})
}

// NaiveP2P measures the Ray/Dask-style ping-pong with copy overheads.
func (e *MeshEnv) NaiveP2P(size int64, cfg baseline.NaiveConfig) (time.Duration, error) {
	data := benchData(size)
	return e.Run(nil, func(r *baseline.Rank) error {
		x := baseline.NewNaive(r, cfg)
		buf := make([]byte, size)
		switch r.ID() {
		case 0:
			if err := x.P2P(1, 1, data, true); err != nil {
				return err
			}
			return x.P2P(1, 1, buf, false)
		case 1:
			if err := x.P2P(0, 0, buf, false); err != nil {
				return err
			}
			return x.P2P(0, 0, buf, true)
		default:
			return nil
		}
	})
}

// Collective names a mesh collective for the figure runners.
type Collective func(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error)

// MPIBroadcast runs the OpenMPI-style broadcast on every rank.
func MPIBroadcast(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	data := benchData(size)
	return e.Run(arrive, func(r *baseline.Rank) error {
		buf := make([]byte, size)
		if r.ID() == 0 {
			copy(buf, data)
		}
		return r.Bcast(0, buf)
	})
}

// MPIGather runs the direct gather to rank 0.
func MPIGather(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	data := benchData(size)
	n := e.M.Size()
	return e.Run(arrive, func(r *baseline.Rank) error {
		var parts [][]byte
		if r.ID() == 0 {
			parts = make([][]byte, n)
			for i := range parts {
				parts[i] = make([]byte, size)
			}
		}
		return r.Gather(0, data, parts)
	})
}

// MPIReduce runs the OpenMPI-style reduce to rank 0.
func MPIReduce(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	return e.Run(arrive, func(r *baseline.Rank) error {
		return r.Reduce(0, sumF32, benchData(size))
	})
}

// MPIAllReduce runs recursive halving-doubling allreduce.
func MPIAllReduce(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	return e.Run(arrive, func(r *baseline.Rank) error {
		return r.AllReduceHD(sumF32, benchData(size))
	})
}

// GlooBroadcast runs Gloo's unoptimized broadcast.
func GlooBroadcast(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	data := benchData(size)
	return e.Run(arrive, func(r *baseline.Rank) error {
		buf := make([]byte, size)
		if r.ID() == 0 {
			copy(buf, data)
		}
		return r.GlooBcast(0, buf)
	})
}

// GlooRingChunked runs Gloo's ring-chunked allreduce.
func GlooRingChunked(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	return e.Run(arrive, func(r *baseline.Rank) error {
		return r.AllReduceRing(sumF32, benchData(size), true)
	})
}

// GlooHalvingDoubling runs Gloo's halving-doubling allreduce.
func GlooHalvingDoubling(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
	return e.Run(arrive, func(r *baseline.Rank) error {
		return r.AllReduceHD(sumF32, benchData(size))
	})
}

// NaiveCollective adapts the Ray/Dask-style store operations.
func NaiveCollective(op string, cfg func(float64) baseline.NaiveConfig) Collective {
	return func(e *MeshEnv, size int64, arrive []time.Duration) (time.Duration, error) {
		c := cfg(e.sc.Bandwidth)
		n := e.M.Size()
		return e.Run(arrive, func(r *baseline.Rank) error {
			x := baseline.NewNaive(r, c)
			data := benchData(size)
			switch op {
			case "bcast":
				return x.Bcast(0, data)
			case "gather":
				var parts [][]byte
				if r.ID() == 0 {
					parts = make([][]byte, n)
					for i := range parts {
						parts[i] = make([]byte, size)
					}
				}
				return x.Gather(0, data, parts)
			case "reduce":
				return x.Reduce(0, sumF32, data)
			case "allreduce":
				return x.AllReduce(0, sumF32, data)
			default:
				return fmt.Errorf("bench: unknown op %q", op)
			}
		})
	}
}

// Staggered builds the Figure 8 arrival vector: participant i arrives at
// i × interval.
func Staggered(n int, interval time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * interval
	}
	return out
}
