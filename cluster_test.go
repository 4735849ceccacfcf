package hoplite

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hoplite/internal/netem"
	"hoplite/internal/types"
)

// TestConcurrentIndependentReduces runs several reduces with disjoint
// source sets at once; coordinators, executors and the directory must not
// cross-talk.
func TestConcurrentIndependentReduces(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 16 << 10
	const jobs = 5
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sources := make([]ObjectID, 4)
			var want float32
			for i := range sources {
				sources[i] = ObjectIDFromString(fmt.Sprintf("cr-%d-%d", j, i))
				val := float32(j*10 + i)
				want += val
				xs := make([]float32, elems)
				for k := range xs {
					xs[k] = val
				}
				if err := c.Node(i).Put(ctx, sources[i], types.EncodeF32(xs)); err != nil {
					errs <- err
					return
				}
			}
			target := ObjectIDFromString(fmt.Sprintf("cr-out-%d", j))
			if _, err := c.Node(j%4).Reduce(ctx, target, sources, 4, SumF32); err != nil {
				errs <- err
				return
			}
			raw, err := c.Node((j+1)%4).Get(ctx, target)
			if err != nil {
				errs <- err
				return
			}
			got := types.DecodeF32(raw)
			if got[0] != want || got[elems-1] != want {
				errs <- fmt.Errorf("job %d: got %v want %v", j, got[0], want)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRestartNodeRejoins kills a worker node, restarts it under the same
// fabric name, and checks the fresh node participates fully.
func TestRestartNodeRejoins(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Emulate: slowEmu(), ShardNodes: 1})
	oid := oidOnShard(t, "restart", 1, 0)
	data := payload(2<<20, 5)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(3).Get(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.RestartNode(3); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get on restarted node: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restarted node payload mismatch")
	}
	// The restarted node can also produce objects.
	oid2 := oidOnShard(t, "restart2", 1, 0)
	if err := c.Node(3).Put(ctx, oid2, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).Get(ctx, oid2); err != nil {
		t.Fatal(err)
	}
}

// TestRestartShardHost restarts nodes hosting directory shard replicas —
// with replication, a shard host no longer takes its shards' metadata
// down with it: the restarted node rebinds its old address, rejoins its
// groups as an out-of-sync backup, and is re-synced by the promoted
// primaries.
func TestRestartShardHost(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 3, Options{Emulate: slowEmu()})
	defer c.Close()
	data := payload(2<<20, 9)
	oid := oidOnShard(t, "shost", c.Size(), 1)
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	// Node 1 is shard 1's initial primary and a backup of shards 0 and 2.
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.RestartNode(1); err != nil {
		t.Fatalf("RestartNode on shard host: %v", err)
	}
	got, err := c.Node(1).Get(ctx, oid)
	if err != nil {
		t.Fatalf("Get on restarted shard host: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restarted shard host payload mismatch")
	}
	// The restarted host serves new objects on its shards too.
	oid2 := oidOnShard(t, "shost2", c.Size(), 1)
	if err := c.Node(1).Put(ctx, oid2, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(2).Get(ctx, oid2); err != nil {
		t.Fatal(err)
	}
}

// TestGetImmutableSmallObject covers zero-copy reads through the inline
// fast path.
func TestGetImmutableSmallObject(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 2, Options{})
	oid := ObjectIDFromString("imm-small")
	data := []byte("hello inline world")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(1).GetImmutable(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

// TestAllReduceStaggered runs the cluster AllReduce helper with sources
// appearing over time.
func TestAllReduceStaggered(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{})
	const elems = 16 << 10
	sources := make([]ObjectID, 4)
	for i := range sources {
		sources[i] = ObjectIDFromString(fmt.Sprintf("ars-%d", i))
		go func(i int) {
			time.Sleep(time.Duration(i) * 25 * time.Millisecond)
			xs := make([]float32, elems)
			for k := range xs {
				xs[k] = 1
			}
			c.Node(i).Put(ctx, sources[i], types.EncodeF32(xs))
		}(i)
	}
	target := ObjectIDFromString("ars-out")
	if _, err := c.AllReduce(ctx, 2, target, sources, 4, SumF32); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		raw, err := c.Node(i).GetImmutable(ctx, target)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if got := types.DecodeF32(raw); got[0] != 4 {
			t.Fatalf("node %d: got %v", i, got[0])
		}
	}
}

// TestClusterCloseIdempotent verifies shutdown is clean and repeatable.
func TestClusterCloseIdempotent(t *testing.T) {
	c, err := StartLocalCluster(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Node(0).Put(ctx, RandomObjectID(), make([]byte, 1<<20)); err == nil {
		t.Fatal("Put on closed cluster succeeded")
	}
}

// TestStandaloneNodesOverTCP wires nodes manually (the hoplited
// deployment path: a head node founding a one-member cluster plus workers
// joining by address).
func TestStandaloneNodesOverTCP(t *testing.T) {
	ctx := testCtx(t)
	head, err := NewNode(Config{Fabric: tcpFabric()})
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	worker, err := NewNode(Config{Fabric: tcpFabric(), JoinAddrs: []string{head.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	oid := ObjectIDFromString("standalone")
	data := payload(1<<20, 8)
	if err := head.Put(ctx, oid, data); err != nil {
		t.Fatal(err)
	}
	got, err := worker.Get(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

// tcpFabric returns a fresh plain-TCP fabric for standalone-node tests.
func tcpFabric() netem.Fabric { return &netem.TCP{} }
