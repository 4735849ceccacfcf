package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"hoplite"
)

// OutOfCoreResult reports one out-of-core workload run: a working set
// several times the per-node memory budget produced and then re-read
// through the spill tier.
type OutOfCoreResult struct {
	Objects        int
	ObjectBytes    int64
	AggregateBytes int64
	MemoryLimit    int64
	Demotions      int64
	SpilledObjects int
	PutSeconds     float64
	ReadSeconds    float64
	// PutBps / ReadBps are aggregate workload throughputs in bytes/s;
	// the read phase is dominated by spill restores.
	PutBps  float64
	ReadBps float64
}

// OutOfCore produces factor×memLimit bytes of objects on one node of a
// two-node cluster, then reads every object back twice — once remotely
// (many served straight off the producer's spill files) and once locally
// on the producer (the restore path). With spillDir == "" the workload is
// expected to block on admission backpressure instead; callers probe that
// case with a bounded ctx.
func OutOfCore(ctx context.Context, spillDir string, memLimit, objSize int64, factor int) (OutOfCoreResult, error) {
	res := OutOfCoreResult{
		ObjectBytes: objSize,
		MemoryLimit: memLimit,
		Objects:     int((memLimit*int64(factor) + objSize - 1) / objSize),
	}
	res.AggregateBytes = int64(res.Objects) * objSize
	c, err := hoplite.StartLocalCluster(2, hoplite.Options{
		Tuning: hoplite.Tuning{
			MemoryLimit: memLimit,
			SpillDir:    spillDir,
		},
	})
	if err != nil {
		return res, err
	}
	defer c.Close()

	pattern := func(i int) []byte {
		p := make([]byte, objSize)
		for j := range p {
			p[j] = byte(i + j*7)
		}
		return p
	}
	oids := make([]hoplite.ObjectID, res.Objects)
	start := time.Now()
	for i := range oids {
		oids[i] = hoplite.ObjectIDFromString(fmt.Sprintf("ooc-%d", i))
		if err := c.Node(0).Put(ctx, oids[i], pattern(i)); err != nil {
			return res, fmt.Errorf("put %d: %w", i, err)
		}
	}
	res.PutSeconds = time.Since(start).Seconds()

	start = time.Now()
	for pass, node := range []int{1, 0} {
		for i, oid := range oids {
			got, err := c.Node(node).Get(ctx, oid)
			if err != nil {
				return res, fmt.Errorf("pass %d get %d: %w", pass, i, err)
			}
			if !bytes.Equal(got, pattern(i)) {
				return res, fmt.Errorf("pass %d object %d corrupted", pass, i)
			}
		}
	}
	res.ReadSeconds = time.Since(start).Seconds()

	res.Demotions = c.Node(0).Store().Demotions() + c.Node(1).Store().Demotions()
	if sp := c.Node(0).Spill(); sp != nil {
		res.SpilledObjects = sp.Len()
	}
	if res.PutSeconds > 0 {
		res.PutBps = float64(res.AggregateBytes) / res.PutSeconds
	}
	if res.ReadSeconds > 0 {
		res.ReadBps = float64(2*res.AggregateBytes) / res.ReadSeconds
	}
	return res, nil
}
