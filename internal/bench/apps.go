package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hoplite"
)

// The application benchmarks replace GPU work with calibrated virtual
// compute (sleeps): the paper's speedups come from communication
// structure — the parameter server's NIC is the bottleneck under Ray,
// and Hoplite's reduce/broadcast trees remove it — so modelling compute
// as a fixed per-round delay preserves the comparison (§5.2–5.6).

// psConfig drives the shared parameter-server engine.
type psConfig struct {
	n          int   // nodes: node 0 is the trainer/PS
	modelSize  int64 // scaled bytes broadcast to workers
	updateSize int64 // scaled bytes returned by workers (grad or rollout)
	batch      int   // updates folded per round (paper: half the workers)
	rounds     int
	computeT   time.Duration // worker simulation/backprop time
	updateT    time.Duration // PS apply time
	reduce     bool          // true: fold updates (gradients); false: gather (rollouts)
	hoplite    bool          // false: Ray-style individual transfers
}

// runPS runs the asynchronous parameter-server loop and returns updates
// applied per second (the paper's samples/s modulo a constant batch
// factor).
func runPS(sc Scale, cfg psConfig) (float64, error) {
	link := sc.Link()
	c, err := hoplite.StartLocalCluster(cfg.n, hoplite.Options{Emulate: &link, InlineThreshold: sc.SmallObject(), PipelineBlock: sc.PipelineBlock()})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	workers := cfg.n - 1
	if cfg.batch > workers {
		cfg.batch = workers
	}
	model := benchData(cfg.modelSize)
	update := benchData(cfg.updateSize)

	// assignments carries (worker, model oid) pairs; updates carries the
	// worker's produced object.
	type job struct {
		worker int
		model  hoplite.ObjectID
	}
	type result struct {
		worker int
		oid    hoplite.ObjectID
		err    error
	}
	jobs := make([]chan job, cfg.n)
	results := make(chan result, workers*2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w < cfg.n; w++ {
		jobs[w] = make(chan job, 4)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := c.Node(w)
			for {
				select {
				case <-done:
					return
				case j := <-jobs[w]:
					ref, err := node.GetRef(ctx, j.model)
					if err != nil {
						results <- result{w, hoplite.ObjectID{}, err}
						continue
					}
					time.Sleep(cfg.computeT) //hoplite:sleep-ok models the worker's compute pass, not polling
					ref.Release()
					oid := hoplite.RandomObjectID()
					if err := node.Put(ctx, oid, update); err != nil {
						results <- result{w, oid, err}
						continue
					}
					results <- result{w, oid, nil}
				}
			}
		}(w)
	}
	defer func() { close(done); wg.Wait() }()

	ps := c.Node(0)
	dispatch := func(w int, modelOID hoplite.ObjectID) error {
		if cfg.hoplite {
			jobs[w] <- job{w, modelOID}
			return nil
		}
		// Ray-style: the PS ships a private copy to each worker, so its
		// egress serializes across workers.
		priv := hoplite.RandomObjectID()
		if err := ps.Put(ctx, priv, model); err != nil {
			return err
		}
		jobs[w] <- job{w, priv}
		return nil
	}

	m0 := hoplite.RandomObjectID()
	if err := ps.Put(ctx, m0, model); err != nil {
		return 0, err
	}
	for w := 1; w < cfg.n; w++ {
		if err := dispatch(w, m0); err != nil {
			return 0, err
		}
	}

	applied := 0
	t0 := time.Now()
	for r := 0; r < cfg.rounds; r++ {
		// Collect one batch of finished workers (the first half to
		// finish, per the paper's async PS and RL setups).
		batchWorkers := make([]int, 0, cfg.batch)
		batchOIDs := make([]hoplite.ObjectID, 0, cfg.batch)
		for len(batchOIDs) < cfg.batch {
			select {
			case res := <-results:
				if res.err != nil {
					return 0, res.err
				}
				batchWorkers = append(batchWorkers, res.worker)
				batchOIDs = append(batchOIDs, res.oid)
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		if cfg.reduce {
			if cfg.hoplite {
				target := hoplite.RandomObjectID()
				if _, err := ps.Reduce(ctx, target, batchOIDs, len(batchOIDs), sumF32); err != nil {
					return 0, err
				}
				if err := ps.WaitLocal(ctx, target); err != nil {
					return 0, err
				}
				ps.Delete(ctx, target)
			} else {
				// Ray-style: the PS pulls and applies each update
				// individually (Figure 1a), so its ingress serializes.
				for _, oid := range batchOIDs {
					if _, err := ps.Get(ctx, oid); err != nil {
						return 0, err
					}
				}
			}
		} else {
			// Samples optimization (IMPALA): gather the rollouts through
			// zero-copy ref futures — all fetches in flight at once, no
			// goroutine parked per transfer.
			futs := make([]*hoplite.RefFuture, len(batchOIDs))
			for i, oid := range batchOIDs {
				futs[i] = ps.GetRefAsync(ctx, oid)
			}
			var firstErr error
			for _, fut := range futs {
				ref, err := fut.Await(ctx)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				ref.Release()
			}
			if firstErr != nil {
				return 0, firstErr
			}
		}
		for _, oid := range batchOIDs {
			ps.Delete(ctx, oid)
		}
		applied += len(batchOIDs)
		time.Sleep(cfg.updateT) //hoplite:sleep-ok models the server's update-apply time, not polling
		mr := hoplite.RandomObjectID()
		if err := ps.Put(ctx, mr, model); err != nil {
			return 0, err
		}
		for _, w := range batchWorkers {
			if err := dispatch(w, mr); err != nil {
				return 0, err
			}
		}
	}
	return float64(applied) / time.Since(t0).Seconds(), nil
}

// Figure9 regenerates the asynchronous SGD throughput comparison for
// AlexNet (233 MB), VGG-16 (528 MB) and ResNet-50 (97 MB).
func Figure9(sc Scale, nodeCounts []int, rounds int) ([]*Table, error) {
	models := []struct {
		name string
		size int64
	}{
		{"AlexNet", 233 << 20},
		{"VGG-16", 528 << 20},
		{"ResNet-50", 97 << 20},
	}
	var tables []*Table
	for _, n := range nodeCounts {
		t := &Table{
			Title:   fmt.Sprintf("Figure 9: async SGD throughput (updates/s), %d nodes", n),
			Columns: []string{"model", "Hoplite", "Ray", "speedup"},
		}
		for _, m := range models {
			cfg := psConfig{
				n: n, modelSize: sc.Size(m.size), updateSize: sc.Size(m.size),
				batch: (n - 1) / 2, rounds: rounds,
				computeT: 20 * time.Millisecond, updateT: 2 * time.Millisecond,
				reduce: true,
			}
			cfg.hoplite = true
			hop, err := runPS(sc, cfg)
			if err != nil {
				return nil, err
			}
			cfg.hoplite = false
			ray, err := runPS(sc, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				m.name, fmt.Sprintf("%.1f", hop), fmt.Sprintf("%.1f", ray), fmt.Sprintf("%.2fx", hop/ray),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Figure10 regenerates the RL training throughput comparison: IMPALA
// (samples optimization: broadcast + gather) and A3C (gradients
// optimization: reduce + broadcast), both with a 64 MB model.
func Figure10(sc Scale, nodeCounts []int, rounds int) ([]*Table, error) {
	var tables []*Table
	for _, algo := range []string{"IMPALA", "A3C"} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 10: %s training throughput (updates/s)", algo),
			Columns: []string{"nodes", "Hoplite", "Ray", "speedup"},
		}
		for _, n := range nodeCounts {
			cfg := psConfig{
				n: n, modelSize: sc.Size(64 << 20),
				batch: (n - 1) / 2, rounds: rounds,
				computeT: 25 * time.Millisecond, updateT: 2 * time.Millisecond,
			}
			if algo == "IMPALA" {
				cfg.updateSize = sc.Size(16 << 20) // rollout batches
				cfg.reduce = false
			} else {
				cfg.updateSize = sc.Size(64 << 20) // gradients
				cfg.reduce = true
			}
			cfg.hoplite = true
			hop, err := runPS(sc, cfg)
			if err != nil {
				return nil, err
			}
			cfg.hoplite = false
			ray, err := runPS(sc, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprintf("%.1f", hop), fmt.Sprintf("%.1f", ray), fmt.Sprintf("%.2fx", hop/ray),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// serving runs the ensemble-serving loop: per query the driver broadcasts
// an image batch to every model node, which "infers" and returns a small
// vote; the driver tallies the majority (§5.4). It returns queries/s and
// the per-query latencies.
func serving(sc Scale, c *hoplite.Cluster, queries int, inferT time.Duration, hopliteMode bool, onQuery func(q int)) (float64, []time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	n := c.Size()
	batch := benchData(sc.Size(12 << 20)) // 64 × 256×256 images
	driver := c.Node(0)

	lat := make([]time.Duration, 0, queries)
	t0 := time.Now()
	for q := 0; q < queries; q++ {
		if onQuery != nil {
			onQuery(q)
		}
		qt := time.Now()
		var oids []hoplite.ObjectID
		shared := hoplite.RandomObjectID()
		if hopliteMode {
			if err := driver.Put(ctx, shared, batch); err != nil {
				return 0, nil, err
			}
		}
		votes := make(chan error, n-1)
		var qwg sync.WaitGroup
		for w := 1; w < n; w++ {
			qoid := shared
			if !hopliteMode {
				qoid = hoplite.RandomObjectID()
				oids = append(oids, qoid)
				if err := driver.Put(ctx, qoid, batch); err != nil {
					return 0, nil, err
				}
			}
			qwg.Add(1)
			go func(w int, qoid hoplite.ObjectID) {
				defer qwg.Done()
				node := c.Node(w)
				wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
				defer wcancel()
				qref, err := node.GetRef(wctx, qoid)
				if err != nil {
					votes <- err
					return
				}
				time.Sleep(inferT)
				qref.Release()
				vote := hoplite.ObjectIDFromString(fmt.Sprintf("vote-%d-%d-%v", q, w, hopliteMode))
				votes <- node.Put(wctx, vote, []byte{byte(w % 8)}) // tiny: inline fast path
			}(w, qoid)
		}
		qwg.Wait()
		ok := 0
		for i := 0; i < n-1; i++ {
			if err := <-votes; err == nil {
				ok++
			}
		}
		if ok == 0 {
			return 0, nil, fmt.Errorf("bench: query %d: all models failed", q)
		}
		if hopliteMode {
			driver.Delete(ctx, shared)
		}
		for _, o := range oids {
			driver.Delete(ctx, o)
		}
		lat = append(lat, time.Since(qt))
	}
	return float64(queries) / time.Since(t0).Seconds(), lat, nil
}

// Figure11 regenerates the ensemble model serving throughput comparison.
func Figure11(sc Scale, nodeCounts []int, queries int) ([]*Table, error) {
	t := &Table{
		Title:   "Figure 11: ensemble serving throughput (queries/s)",
		Columns: []string{"nodes", "Hoplite", "Ray", "speedup"},
	}
	for _, n := range nodeCounts {
		link := sc.Link()
		run := func(hopliteMode bool) (float64, error) {
			c, err := hoplite.StartLocalCluster(n, hoplite.Options{Emulate: &link, InlineThreshold: sc.SmallObject(), PipelineBlock: sc.PipelineBlock()})
			if err != nil {
				return 0, err
			}
			defer c.Close()
			qps, _, err := serving(sc, c, queries, 10*time.Millisecond, hopliteMode, nil)
			return qps, err
		}
		hop, err := run(true)
		if err != nil {
			return nil, err
		}
		ray, err := run(false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprintf("%.2f", hop), fmt.Sprintf("%.2f", ray), fmt.Sprintf("%.2fx", hop/ray),
		})
	}
	return []*Table{t}, nil
}

// Figure12 regenerates the fault-tolerance timeline: per-query serving
// latency with a model node killed partway through and restarted
// ("rejoined") later. Directory shards stay on the driver node so the
// worker's death does not take coordination state with it (§6).
func Figure12(sc Scale, queries int) ([]*Table, error) {
	link := sc.Link()
	const n = 8
	failAt, rejoinAt := queries/3, 2*queries/3
	victim := n - 1
	run := func(hopliteMode bool) ([]time.Duration, error) {
		c, err := hoplite.StartLocalCluster(n, hoplite.Options{
			Emulate: &link, InlineThreshold: sc.SmallObject(), PipelineBlock: sc.PipelineBlock(), ShardNodes: 1,
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		_, lat, err := serving(sc, c, queries, 10*time.Millisecond, hopliteMode, func(q int) {
			switch q {
			case failAt:
				c.KillNode(victim)
			case rejoinAt:
				if err := c.RestartNode(victim); err == nil {
					// the restarted node serves again from the next query
				}
			}
		})
		return lat, err
	}
	hop, err := run(true)
	if err != nil {
		return nil, err
	}
	ray, err := run(false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 12: serving latency per query across failure (q=%d) and rejoin (q=%d)", failAt, rejoinAt),
		Columns: []string{"query", "Hoplite", "Ray", "event"},
	}
	for q := 0; q < queries; q++ {
		event := ""
		if q == failAt {
			event = "worker failed"
		}
		if q == rejoinAt {
			event = "worker rejoined"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(q), fmtDur(hop[q], nil), fmtDur(ray[q], nil), event})
	}
	return []*Table{t}, nil
}

// Figure13 regenerates the synchronous data-parallel training comparison:
// per round, every node computes then allreduces gradients of the model
// size; throughput is updates/s × nodes.
func Figure13(sc Scale, nodeCounts []int, rounds int) ([]*Table, error) {
	models := []struct {
		name string
		size int64
	}{
		{"AlexNet", 233 << 20},
		{"VGG-16", 528 << 20},
		{"ResNet-50", 97 << 20},
	}
	computeT := 20 * time.Millisecond
	var tables []*Table
	for _, n := range nodeCounts {
		t := &Table{
			Title:   fmt.Sprintf("Figure 13: synchronous data-parallel training throughput (rounds/s × nodes), %d nodes", n),
			Columns: []string{"model", "Hoplite", "OpenMPI", "Gloo", "Ray"},
		}
		he, err := NewHopliteEnv(sc, n, 0)
		if err != nil {
			return nil, err
		}
		me, err := NewMeshEnv(sc, n)
		if err != nil {
			he.Close()
			return nil, err
		}
		for _, m := range models {
			size := sc.Size(m.size)
			row := []string{m.name}
			for _, ar := range []func() (time.Duration, error){
				func() (time.Duration, error) { return he.AllReduce(size, nil) },
				func() (time.Duration, error) { return MPIAllReduce(me, size, nil) },
				func() (time.Duration, error) { return GlooRingChunked(me, size, nil) },
				func() (time.Duration, error) { return NaiveCollective("allreduce", rayNaive)(me, size, nil) },
			} {
				total := time.Duration(0)
				var err error
				for r := 0; r < rounds; r++ {
					var d time.Duration
					d, err = ar()
					if err != nil {
						break
					}
					total += d + computeT
				}
				if err != nil {
					row = append(row, "ERR("+err.Error()+")")
					continue
				}
				perRound := total / time.Duration(rounds)
				row = append(row, fmt.Sprintf("%.1f", float64(n)/perRound.Seconds()))
			}
			t.Rows = append(t.Rows, row)
		}
		he.Close()
		me.Close()
		tables = append(tables, t)
	}
	return tables, nil
}
