package hoplite

import (
	"bytes"
	"testing"
	"time"
)

// A striped Get must skew its claim spans toward the sender the receiver
// has measured as fastest: seeding node 3's link tracker with a 4x
// bandwidth edge for node 0 makes node 0 claim longer chunk runs per trip,
// so it serves more bytes of the object than either slow sender even
// though the underlying fabric is symmetric.
func TestStripedGetSkewsSpansTowardFastSender(t *testing.T) {
	ctx := testCtx(t)
	c := startCluster(t, 4, Options{Tuning: Tuning{StripeThreshold: 1 << 20, MaxSources: 4}})

	// Seed the receiver's tracker: node 0 at ~200 MB/s, nodes 1-2 at
	// ~50 MB/s. Repeated samples pin the EWMA regardless of gain.
	links := c.Node(3).Links()
	for i := 0; i < 10; i++ {
		links.ObserveTransfer(c.Node(0).ID(), 200<<20, time.Second)
		links.ObserveTransfer(c.Node(1).ID(), 50<<20, time.Second)
		links.ObserveTransfer(c.Node(2).ID(), 50<<20, time.Second)
	}

	data := payload(32<<20, 9)
	oid := ObjectIDFromString("skewed-striped-get")
	if err := c.Node(0).Put(ctx, oid, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := c.Node(i).Get(ctx, oid); err != nil {
			t.Fatalf("warm Get node%d: %v", i, err)
		}
	}
	waitComplete(t, ctx, c, 3, oid, 3)

	receiver := c.Node(3).ID()
	before := make([]int64, 3)
	for i := 0; i < 3; i++ {
		before[i] = c.Node(i).PeerDataStats()[receiver].Bytes
	}
	got, err := c.Node(3).Get(ctx, oid)
	if err != nil {
		t.Fatalf("striped Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped Get payload mismatch")
	}
	served := make([]int64, 3)
	for i := 0; i < 3; i++ {
		served[i] = c.Node(i).PeerDataStats()[receiver].Bytes - before[i]
	}
	t.Logf("bytes served to receiver: fast=%d slow=%d/%d", served[0], served[1], served[2])
	for i := 0; i < 3; i++ {
		if served[i] <= 0 {
			t.Fatalf("sender %d served no bytes; all senders should participate", i)
		}
	}
	if served[0] <= served[1] || served[0] <= served[2] {
		t.Fatalf("fast sender served %d bytes, not more than slow senders (%d, %d)",
			served[0], served[1], served[2])
	}
}
