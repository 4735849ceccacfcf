package directory

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// membershipHarness runs a replica fleet over real TCP: every server
// boots from the same epoch-1 cluster map, from which it derives its shard
// groups.
type membershipHarness struct {
	t     *testing.T
	boot  types.ClusterMap
	addrs []string
	lns   []net.Listener
	dirs  []*Server
	wires []*wire.Server
}

// startMembershipGroup boots n shard-hosting members with the given shard
// count and directory/object replication factors.
func startMembershipGroup(t *testing.T, n, shards, dirRF, objRF int) *membershipHarness {
	t.Helper()
	h := &membershipHarness{
		t:     t,
		lns:   make([]net.Listener, n),
		dirs:  make([]*Server, n),
		wires: make([]*wire.Server, n),
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h.lns[i] = ln
		h.addrs = append(h.addrs, ln.Addr().String())
	}
	h.boot = bootMap(h.addrs, shards, dirRF, objRF)
	for i := 0; i < n; i++ {
		h.start(i, h.boot)
	}
	t.Cleanup(func() {
		for i := range h.dirs {
			if h.dirs[i] != nil {
				h.kill(i)
			}
		}
	})
	return h
}

// bootMap is the epoch-1 map founding a cluster of shard-hosting members
// addrs.
func bootMap(addrs []string, shards, dirRF, objRF int) types.ClusterMap {
	cm := types.ClusterMap{Epoch: 1, NumShards: shards, DirRF: dirRF, ObjectRF: objRF}
	for _, a := range addrs {
		cm.Members = append(cm.Members, types.Member{
			Addr: types.NodeID(a), State: types.MemberActive, ShardHost: true,
		})
	}
	return cm
}

func (h *membershipHarness) start(i int, boot types.ClusterMap) {
	h.t.Helper()
	cm := boot.Clone()
	d := NewReplicated(Config{
		Self:              h.addrs[i],
		Dial:              tcpDial,
		HeartbeatInterval: testBeat,
		LeaseTimeout:      testLease,
		InitialMap:        &cm,
		RepairInterval:    -1, // repair needs a data plane; unit tests have none
	})
	ws := wire.NewServer(h.lns[i], d.Handler())
	go ws.Serve()
	d.Start()
	h.dirs[i] = d
	h.wires[i] = ws
}

func (h *membershipHarness) kill(i int) {
	h.wires[i].Close()
	h.dirs[i].Close()
	h.dirs[i] = nil
}

// restart rebinds member i's address and boots a fresh, empty server on
// it from the founding map.
func (h *membershipHarness) restart(i int) {
	h.t.Helper()
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.lns[i], err = net.Listen("tcp", h.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("rebind %s: %v", h.addrs[i], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.start(i, h.boot)
}

func (h *membershipHarness) client(node types.NodeID) *Client {
	h.t.Helper()
	c := NewReplicatedClient(node, h.boot.DeriveGroups(), tcpDial)
	h.t.Cleanup(func() { c.Close() })
	return c
}

// rawCall sends one wire message to addr outside any client routing, so
// tests control the epoch stamp exactly.
func rawCall(t *testing.T, addr string, m wire.Message) wire.Message {
	t.Helper()
	ctx := ctxT(t)
	conn, err := tcpDial(ctx, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	wc := wire.NewClient(conn, nil)
	defer wc.Close()
	resp, err := wc.Call(ctx, m)
	if err != nil {
		t.Fatalf("call %v: %v", m.Method, err)
	}
	return resp
}

// TestDirectoryStaleEpochBounce checks the directory's epoch gate on both
// paths: requests stamped with an older epoch get ErrStaleMap plus the
// current map in the payload; unstamped (no map installed) and current-epoch
// requests pass.
func TestDirectoryStaleEpochBounce(t *testing.T) {
	h := startMembershipGroup(t, 2, 2, 2, 1)
	ctx := ctxT(t)
	c := h.client(types.NodeID(h.addrs[0]))

	// Advance the map past the boot epoch with a storage-only join.
	cm, err := c.JoinNode(ctx, "storage-node:1", false)
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if cm.Epoch != 2 {
		t.Fatalf("epoch after join = %d, want 2", cm.Epoch)
	}

	oid := types.ObjectIDFromString("bounce")
	shardAddr := h.addrs[oid.Shard(2)]
	for _, tc := range []struct {
		name  string
		epoch int64
		stale bool
	}{
		{"unstamped legacy", 0, false},
		{"current epoch", 2, false},
		{"stale epoch", 1, true},
	} {
		resp := rawCall(t, shardAddr, wire.Message{Method: wire.MethodLookup, OID: oid, Epoch: tc.epoch})
		got := errors.Is(resp.ErrorOf(), types.ErrStaleMap)
		if got != tc.stale {
			t.Fatalf("%s: stale bounce = %v, want %v (err %q)", tc.name, got, tc.stale, resp.Err)
		}
		if tc.stale {
			bounced, derr := types.DecodeClusterMap(resp.Payload)
			if derr != nil {
				t.Fatalf("%s: bounce payload: %v", tc.name, derr)
			}
			if bounced.Epoch != 2 {
				t.Fatalf("%s: bounced map epoch = %d, want 2", tc.name, bounced.Epoch)
			}
		}
	}

	// Mutations are gated identically.
	resp := rawCall(t, shardAddr, wire.Message{
		Method: wire.MethodPutStarted, OID: oid, Node: "n1", Size: 64, Epoch: 1,
	})
	if !errors.Is(resp.ErrorOf(), types.ErrStaleMap) {
		t.Fatalf("stale mutation not bounced: %q", resp.Err)
	}
}

// TestClientRecoversFromStaleBounce checks the replicated client installs
// the map carried by a bounce and retries: a client stuck at the boot
// epoch keeps working after the membership moves on without it.
func TestClientRecoversFromStaleBounce(t *testing.T) {
	h := startMembershipGroup(t, 2, 2, 2, 1)
	ctx := ctxT(t)
	mover := h.client(types.NodeID(h.addrs[0]))
	if _, err := mover.JoinNode(ctx, "storage-node:1", false); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}

	// A fresh client starts at the boot map (epoch 1) and stamps with it;
	// the first call is bounced, the map installed, the retry succeeds.
	late := h.client(types.NodeID(h.addrs[1]))
	late.InstallMap(h.boot)
	oid := types.ObjectIDFromString("late-client")
	if err := late.PutStarted(ctx, oid, 128); err != nil {
		t.Fatalf("PutStarted through stale client: %v", err)
	}
	if got := late.Map().Epoch; got != 2 {
		t.Fatalf("client map epoch after bounce = %d, want 2", got)
	}
}

// TestJoinRebalancesShards boots two shard hosts, joins a third, and
// checks the rebalance hands the new node real replicas: it syncs from
// snapshots, starts hosting, and existing data stays readable through the
// reshuffled groups.
func TestJoinRebalancesShards(t *testing.T) {
	h := startMembershipGroup(t, 2, 4, 2, 1)
	ctx := ctxT(t)
	c := h.client(types.NodeID(h.addrs[0]))

	// Seed entries on every shard so snapshot sync has content to move.
	var oids []types.ObjectID
	for i := 0; i < 16; i++ {
		oid := types.ObjectIDFromString(fmt.Sprintf("rebalance-%d", i))
		if err := c.PutStarted(ctx, oid, 1024); err != nil {
			t.Fatalf("PutStarted %d: %v", i, err)
		}
		if err := c.PutComplete(ctx, oid); err != nil {
			t.Fatalf("PutComplete %d: %v", i, err)
		}
		oids = append(oids, oid)
	}

	// The joiner learns the map through Join (like a booting node would),
	// then its server comes up and is synced by the incumbents.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joiner := ln.Addr().String()
	ln.Close()
	cm, err := c.JoinNode(ctx, types.NodeID(joiner), true)
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if cm.Epoch != 2 || cm.MemberIndex(types.NodeID(joiner)) < 0 {
		t.Fatalf("join map: epoch %d, member %v", cm.Epoch, cm.MemberIndex(types.NodeID(joiner)))
	}
	h.lns = append(h.lns, mustListen(t, joiner))
	h.addrs = append(h.addrs, joiner)
	h.dirs = append(h.dirs, nil)
	h.wires = append(h.wires, nil)
	h.start(len(h.addrs)-1, cm)
	j := h.dirs[len(h.dirs)-1]

	// The new host must end up with replicas of the shards the new
	// groups assign it — the derived layout over 3 hosts touches it.
	waitFor(t, "joiner hosts replicas", func() bool { return j.HostedReplicas() > 0 })

	// Every object stays readable through the client across the epoch
	// bump (bounces re-route it).
	for _, oid := range oids {
		rec, err := c.Lookup(ctx, oid, false)
		if err != nil {
			t.Fatalf("Lookup %v after rebalance: %v", oid, err)
		}
		if rec.Size != 1024 {
			t.Fatalf("Lookup %v: size %d", oid, rec.Size)
		}
	}

	// And mutations keep landing, including on shards the joiner now
	// leads (exercised by covering all shards).
	for i := 0; i < 8; i++ {
		oid := types.ObjectIDFromString(fmt.Sprintf("post-join-%d", i))
		if err := c.PutStarted(ctx, oid, 64); err != nil {
			t.Fatalf("post-join PutStarted %d: %v", i, err)
		}
	}
}

// TestDrainHandsOffShards drains one of three shard hosts and checks its
// replicas hand off cleanly: the drained server ends with zero hosted
// replicas, DrainFinished removes it from the map, and the directory
// keeps accepting mutations throughout.
func TestDrainHandsOffShards(t *testing.T) {
	h := startMembershipGroup(t, 3, 3, 2, 1)
	ctx := ctxT(t)
	c := h.client(types.NodeID(h.addrs[1]))

	for i := 0; i < 9; i++ {
		oid := types.ObjectIDFromString(fmt.Sprintf("drain-%d", i))
		if err := c.PutStarted(ctx, oid, 256); err != nil {
			t.Fatalf("PutStarted %d: %v", i, err)
		}
	}

	victim := types.NodeID(h.addrs[0])
	cm, err := c.DrainNode(ctx, victim)
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if st, ok := cm.MemberState(victim); !ok || st != types.MemberDraining {
		t.Fatalf("victim state after drain: %v %v", st, ok)
	}

	waitFor(t, "drained node sheds replicas", func() bool {
		return h.dirs[0].HostedReplicas() == 0
	})

	if _, err := c.DrainFinished(ctx, victim); err != nil {
		t.Fatalf("DrainFinished: %v", err)
	}
	finalMap, err := c.FetchMap(ctx)
	if err != nil {
		t.Fatalf("FetchMap: %v", err)
	}
	if _, ok := finalMap.MemberState(victim); ok {
		t.Fatalf("victim still in map %+v", finalMap)
	}

	// Mutations route to the remaining hosts.
	for i := 0; i < 9; i++ {
		oid := types.ObjectIDFromString(fmt.Sprintf("post-drain-%d", i))
		if err := c.PutStarted(ctx, oid, 64); err != nil {
			t.Fatalf("post-drain PutStarted %d: %v", i, err)
		}
	}
	h.kill(0)
}

// TestDrainLastShardHostRejected checks the guard that keeps the
// directory from losing its last home.
func TestDrainLastShardHostRejected(t *testing.T) {
	h := startMembershipGroup(t, 1, 1, 1, 1)
	ctx := ctxT(t)
	c := h.client(types.NodeID(h.addrs[0]))
	if _, err := c.DrainNode(ctx, types.NodeID(h.addrs[0])); err == nil {
		t.Fatal("draining the last shard host succeeded")
	}
}

// TestStatusReportsRoles checks the status sweep: shard primaries answer
// with entry counts and the map, and the roles accessor reflects what the
// server hosts.
func TestStatusReportsRoles(t *testing.T) {
	h := startMembershipGroup(t, 2, 2, 2, 1)
	ctx := ctxT(t)
	self := types.NodeID(h.addrs[0])
	c := h.client(self)

	oid := types.ObjectIDFromString("status-object")
	if err := c.PutStarted(ctx, oid, 2048); err != nil {
		t.Fatalf("PutStarted: %v", err)
	}
	if err := c.PutComplete(ctx, oid); err != nil {
		t.Fatalf("PutComplete: %v", err)
	}

	st, err := c.Status(ctx, self)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("status shards = %d", len(st.Shards))
	}
	if st.Map.Epoch != 1 {
		t.Fatalf("status map epoch = %d", st.Map.Epoch)
	}
	total := 0
	for _, sh := range st.Shards {
		if sh.Primary == "" {
			t.Fatalf("shard %d has no primary", sh.Shard)
		}
		total += sh.Objects
	}
	if total != 1 {
		t.Fatalf("status total objects = %d, want 1", total)
	}
	for i, d := range h.dirs {
		roles := d.Roles()
		if len(roles) == 0 {
			t.Fatalf("server %d hosts no roles", i)
		}
		for _, r := range roles {
			if r.Shard < 0 || r.Shard >= 2 {
				t.Fatalf("server %d reports shard %d", i, r.Shard)
			}
		}
	}
}

func mustListen(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
