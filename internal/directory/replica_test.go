package directory

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

func tcpDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

const (
	testBeat  = 10 * time.Millisecond
	testLease = 80 * time.Millisecond
)

// startReplicaGroup runs one shard's replica group over real TCP: n
// members of a founding map whose single shard is replicated on all of
// them, each replica an independent directory server behind its own wire
// server.
func startReplicaGroup(t *testing.T, n int) *membershipHarness {
	t.Helper()
	return startMembershipGroup(t, n, 1, n, 0)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedMutationFailover kills the shard primary between
// mutations and checks the client lands every later op on the promoted
// backup with no state lost.
func TestReplicatedMutationFailover(t *testing.T) {
	h := startReplicaGroup(t, 3)
	ctx := ctxT(t)
	c := h.client("n1")
	oid := types.ObjectIDFromString("failover")
	if err := c.PutStarted(ctx, oid, 4096); err != nil {
		t.Fatalf("PutStarted: %v", err)
	}
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	h.kill(0)
	// The next mutation must fail over to the promoted backup.
	if err := c.PutComplete(ctx, oid); err != nil {
		t.Fatalf("PutComplete after primary kill: %v", err)
	}
	rec, err := c.Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup after failover: %v", err)
	}
	if rec.Size != 4096 || len(rec.Locs) != 1 || rec.Locs[0].Progress != types.ProgressComplete {
		t.Fatalf("replicated record lost state: %+v", rec)
	}
}

// TestPromotionOrder checks succession: killing the primary promotes the
// next replica by group index — not a later one — and killing that
// promotes the third.
func TestPromotionOrder(t *testing.T) {
	h := startReplicaGroup(t, 3)
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	if h.dirs[1].Primary(0) || h.dirs[2].Primary(0) {
		t.Fatal("backup believes itself primary at boot")
	}
	h.kill(0)
	waitFor(t, "second replica promotion", func() bool { return h.dirs[1].Primary(0) })
	if h.dirs[2].Primary(0) {
		t.Fatal("third replica promoted out of order")
	}
	h.kill(1)
	waitFor(t, "third replica promotion", func() bool { return h.dirs[2].Primary(0) })
}

// TestLogTailReplayOnPromotion drives a backup directly with out-of-order
// replicated ops from a test-controlled "primary", then kills the primary
// and checks promotion replays the buffered tail in sequence order.
func TestLogTailReplayOnPromotion(t *testing.T) {
	// addr0 is the fake primary (a bare wire server answering pings);
	// addr1 hosts the real backup under test.
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := wire.NewServer(fakeLn, func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
		return wire.Message{Method: wire.MethodPing}
	})
	go fake.Serve()
	backupLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	group := []string{fakeLn.Addr().String(), backupLn.Addr().String()}
	cm := bootMap(group, 1, len(group), 0)
	backup := NewReplicated(Config{
		Self:              group[1],
		InitialMap:        &cm,
		Dial:              tcpDial,
		HeartbeatInterval: testBeat,
		LeaseTimeout:      testLease,
	})
	bsrv := wire.NewServer(backupLn, backup.Handler())
	go bsrv.Serve()
	backup.Start()
	t.Cleanup(func() { bsrv.Close(); backup.Close(); fake.Close() })

	conn, err := tcpDial(context.Background(), group[1])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	ctx := ctxT(t)

	oid := types.ObjectIDFromString("replay")
	send := func(seq int64, op wire.Message) wire.Message {
		payload, err := wire.AppendMessage(nil, &op)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wc.Call(ctx, wire.Message{
			Method:   wire.MethodReplicate,
			Offset:   0,
			Gen:      1,
			Num:      seq,
			Node:     types.NodeID(group[0]),
			Complete: true,
			Payload:  payload,
		})
		if err != nil {
			t.Fatalf("replicate seq %d: %v", seq, err)
		}
		return resp
	}
	// Deliver op 2 (complete) before op 1 (started), then op 4 with a
	// permanent gap at 3: the backup must buffer all of them.
	send(2, wire.Message{Method: wire.MethodPutComplete, OID: oid, Node: "h1"})
	resp := send(1, wire.Message{Method: wire.MethodPutStarted, OID: oid, Node: "h1", Size: 512})
	if resp.Num != 2 {
		t.Fatalf("backup applied through seq %d, want 2 (out-of-order op not drained)", resp.Num)
	}
	gapOID := types.ObjectIDFromString("replay-gap")
	send(4, wire.Message{Method: wire.MethodPutStarted, OID: gapOID, Node: "h2", Size: 64})
	// Kill the fake primary; the backup promotes and must replay op 4
	// across the missing seq 3.
	fake.Close()
	waitFor(t, "backup promotion", func() bool { return backup.Primary(0) })
	epoch, seq := backup.ShardSeq(0)
	if epoch < 2 || seq != 4 {
		t.Fatalf("promoted replica at epoch %d seq %d, want epoch >= 2 seq 4", epoch, seq)
	}
	c := NewReplicatedClient("reader", [][]string{group}, tcpDial)
	t.Cleanup(func() { c.Close() })
	rec, err := c.Lookup(ctx, oid, false)
	if err != nil {
		t.Fatalf("Lookup after replay: %v", err)
	}
	if rec.Size != 512 || len(rec.Locs) != 1 || rec.Locs[0].Progress != types.ProgressComplete {
		t.Fatalf("replayed record wrong: %+v", rec)
	}
	if rec, err := c.Lookup(ctx, gapOID, false); err != nil || len(rec.Locs) != 1 {
		t.Fatalf("tail op past the gap not replayed: %+v err %v", rec, err)
	}
}

// TestPromotionPrefersSyncedReplica: succession is by state, not bare
// liveness — when the primary dies, an empty (restarted) replica earlier
// in the group order must defer to a later replica holding the shard's
// replicated history, instead of claiming the shard and wiping it.
func TestPromotionPrefersSyncedReplica(t *testing.T) {
	// group[0] is a test-controlled fake primary; group[1] ("empty") and
	// group[2] ("synced") are real replicas. Only synced receives the
	// fake's replicated ops.
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := wire.NewServer(fakeLn, func(ctx context.Context, m wire.Message, p *wire.Peer) wire.Message {
		return wire.Message{Method: wire.MethodPing}
	})
	go fake.Serve()
	lns := make([]net.Listener, 2)
	group := []string{fakeLn.Addr().String()}
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		group = append(group, lns[i].Addr().String())
	}
	servers := make([]*Server, 2)
	cm := bootMap(group, 1, len(group), 0)
	for i := range servers {
		servers[i] = NewReplicated(Config{
			Self:              group[i+1],
			InitialMap:        &cm,
			Dial:              tcpDial,
			HeartbeatInterval: testBeat,
			LeaseTimeout:      testLease,
		})
		ws := wire.NewServer(lns[i], servers[i].Handler())
		go ws.Serve()
		servers[i].Start()
		srv := servers[i]
		t.Cleanup(func() { ws.Close(); srv.Close() })
	}
	t.Cleanup(func() { fake.Close() })
	empty, synced := servers[0], servers[1]

	// Feed the synced replica four ops at epoch 1; the empty one gets
	// nothing (a restarted replica that lost its state).
	conn, err := tcpDial(context.Background(), group[2])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("prefer-synced")
	for seq := int64(1); seq <= 4; seq++ {
		op := wire.Message{Method: wire.MethodPutStarted, OID: oid, Node: types.NodeID(fmt.Sprintf("h%d", seq)), Size: 64}
		payload, err := wire.AppendMessage(nil, &op)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wc.Call(ctx, wire.Message{
			Method: wire.MethodReplicate, Offset: 0, Gen: 1, Num: seq,
			Node: types.NodeID(group[0]), Complete: true, Payload: payload,
		})
		if err != nil || resp.ErrorOf() != nil {
			t.Fatalf("replicate %d: %v %v", seq, err, resp.ErrorOf())
		}
	}
	fake.Close() // primary dies
	waitFor(t, "synced replica promotion", func() bool { return synced.Primary(0) })
	if empty.Primary(0) {
		t.Fatal("empty replica claimed the shard over a synced survivor")
	}
	_, seq := synced.ShardSeq(0)
	if seq != 4 {
		t.Fatalf("promoted replica lost state: seq %d, want 4", seq)
	}
}

// TestRetriedAcquireDedupe sends the same acquire (same client op
// sequence number) twice — to the original primary and, after killing
// it, to the promoted backup — and checks both return the same committed
// lease instead of double-leasing a second sender.
func TestRetriedAcquireDedupe(t *testing.T) {
	h := startReplicaGroup(t, 3)
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("dedupe")
	h1 := h.client("h1")
	h2 := h.client("h2")
	if err := h1.PutStarted(ctx, oid, 1024); err != nil {
		t.Fatal(err)
	}
	if err := h1.PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if err := h2.PutStarted(ctx, oid, 1024); err != nil {
		t.Fatal(err)
	}
	if err := h2.PutComplete(ctx, oid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })

	// Raw wire client: the retry must carry the same Num2, which the
	// directory Client would refresh on a new logical acquire.
	conn, err := tcpDial(ctx, h.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	acquire := wire.Message{Method: wire.MethodAcquire, OID: oid, Node: "recv", Num2: 77}
	first, err := wc.Call(ctx, acquire)
	if err != nil || first.ErrorOf() != nil {
		t.Fatalf("acquire: %v %v", err, first.ErrorOf())
	}
	if first.Sender == "" {
		t.Fatal("no sender leased")
	}
	retry, err := wc.Call(ctx, acquire)
	if err != nil || retry.ErrorOf() != nil {
		t.Fatalf("retried acquire: %v %v", err, retry.ErrorOf())
	}
	if retry.Sender != first.Sender {
		t.Fatalf("retry leased %s, first leased %s: double lease", retry.Sender, first.Sender)
	}

	// Kill the primary; the promoted backup received the op via
	// replication and must dedupe the same retry too.
	h.kill(0)
	waitFor(t, "promotion", func() bool { return h.dirs[1].Primary(0) })
	conn2, err := tcpDial(ctx, h.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	wc2 := wire.NewClient(conn2, nil)
	t.Cleanup(func() { wc2.Close() })
	retry2, err := wc2.Call(ctx, acquire)
	if err != nil || retry2.ErrorOf() != nil {
		t.Fatalf("retry on promoted backup: %v %v", err, retry2.ErrorOf())
	}
	if retry2.Sender != first.Sender {
		t.Fatalf("promoted backup leased %s, committed lease was %s: double lease", retry2.Sender, first.Sender)
	}

	// A different receiver (fresh op seq) gets the one remaining holder —
	// proving exactly one of the two was leased by all three calls above.
	other, err := h.client("recv2").AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatalf("second receiver acquire: %v", err)
	}
	if other.Sender == first.Sender {
		t.Fatalf("second receiver got the already-leased sender %s", first.Sender)
	}
}

// TestSnapshotResyncAfterRestart restarts a backup empty and checks the
// primary's heartbeat-driven snapshot push restores the full shard state,
// after which the restarted replica can be promoted and serve it.
func TestSnapshotResyncAfterRestart(t *testing.T) {
	h := startReplicaGroup(t, 2)
	ctx := ctxT(t)
	c := h.client("n1")
	var oids []types.ObjectID
	for i := 0; i < 20; i++ {
		oid := types.RandomObjectID()
		oids = append(oids, oid)
		if err := c.PutStarted(ctx, oid, int64(100+i)); err != nil {
			t.Fatal(err)
		}
		if err := c.PutComplete(ctx, oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutInline(ctx, types.ObjectIDFromString("inline"), []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	_, primarySeq := h.dirs[0].ShardSeq(0)

	h.kill(1)
	// More ops while the backup is down.
	extra := types.ObjectIDFromString("while-down")
	if err := c.PutStarted(ctx, extra, 7); err != nil {
		t.Fatal(err)
	}
	h.restart(1)
	waitFor(t, "snapshot resync", func() bool {
		_, seq := h.dirs[1].ShardSeq(0)
		return seq > primarySeq
	})

	// Promote the restarted replica by killing the primary: the resynced
	// state must be served in full.
	h.kill(0)
	waitFor(t, "restarted replica promotion", func() bool { return h.dirs[1].Primary(0) })
	for i, oid := range oids {
		rec, err := c.Lookup(ctx, oid, false)
		if err != nil {
			t.Fatalf("Lookup %d after resync: %v", i, err)
		}
		if rec.Size != int64(100+i) || len(rec.Locs) != 1 {
			t.Fatalf("record %d lost in resync: %+v", i, rec)
		}
	}
	if rec, err := c.Lookup(ctx, extra, false); err != nil || len(rec.Locs) != 1 {
		t.Fatalf("op issued while backup down lost: %+v err %v", rec, err)
	}
	if rec, err := c.Lookup(ctx, types.ObjectIDFromString("inline"), false); err != nil || string(rec.Inline) != "tiny" {
		t.Fatalf("inline payload lost in resync: %+v err %v", rec, err)
	}
}

// TestSubscribeRehomedOnReplicaDeath subscribes through the replica group,
// kills the replica serving the subscription, and checks updates keep
// flowing (the client re-homes the subscription; backups fan out the
// mutations they apply).
func TestSubscribeRehomedOnReplicaDeath(t *testing.T) {
	h := startReplicaGroup(t, 3)
	ctx := ctxT(t)
	c := h.client("subnode")
	oid := types.ObjectIDFromString("rehome")
	updates := make(chan Update, 64)
	if _, err := c.Subscribe(ctx, oid, func(u Update) { updates <- u }); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	writer := h.client("writer")
	if err := writer.PutStarted(ctx, oid, 9); err != nil {
		t.Fatal(err)
	}
	select {
	case <-updates:
	case <-time.After(5 * time.Second):
		t.Fatal("no update before kill")
	}
	// Kill every replica except the last; whichever was serving the
	// subscription dies, and the survivor ends up primary.
	h.kill(0)
	h.kill(1)
	waitFor(t, "survivor promotion", func() bool { return h.dirs[2].Primary(0) })
	if err := writer.PutComplete(ctx, oid); err != nil {
		t.Fatalf("PutComplete after kills: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case u := <-updates:
			for _, l := range u.Locs {
				if l.Progress == types.ProgressComplete {
					return // the post-kill mutation reached the subscriber
				}
			}
		case <-deadline:
			t.Fatal("subscription not re-homed: completion update never arrived")
		}
	}
}

// TestStandaloneBackCompat checks that a one-member founding map — what
// a flagless hoplited boots — serves as the old standalone shard did: its
// only replica is primary with no backup to forward to.
func TestStandaloneBackCompat(t *testing.T) {
	cs := startShard(t, "n1", "n2")
	ctx := ctxT(t)
	oid := types.ObjectIDFromString("standalone")
	if err := cs[0].PutStarted(ctx, oid, 10); err != nil {
		t.Fatal(err)
	}
	lease, err := cs[1].AcquireSender(ctx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Sender != "n1" {
		t.Fatalf("sender %s", lease.Sender)
	}
	if err := cs[1].ReleaseSender(ctx, oid, lease.Sender, true); err != nil {
		t.Fatal(err)
	}
}

// TestMutationOnBackupRedirects checks a backup bounces mutations with
// ErrNotPrimary (the raw protocol error the client's failover consumes).
func TestMutationOnBackupRedirects(t *testing.T) {
	h := startReplicaGroup(t, 2)
	waitFor(t, "initial primary", func() bool { return h.dirs[0].Primary(0) })
	ctx := ctxT(t)
	conn, err := tcpDial(ctx, h.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewClient(conn, nil)
	t.Cleanup(func() { wc.Close() })
	// The backup learns the primary's address from its first heartbeat;
	// the redirect itself must fire from the very first call.
	waitFor(t, "redirect with primary hint", func() bool {
		resp, err := wc.Call(ctx, wire.Message{
			Method: wire.MethodPutStarted,
			OID:    types.ObjectIDFromString("redirect"),
			Node:   "n1",
			Size:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(resp.ErrorOf(), types.ErrNotPrimary) {
			t.Fatalf("backup accepted a mutation: %v", resp.ErrorOf())
		}
		return string(resp.Node) == h.addrs[0]
	})
}
