package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hoplite/internal/buffer"
	"hoplite/internal/directory"
	"hoplite/internal/transport"
	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// pull tracks one in-flight inbound transfer so concurrent Gets of the
// same object share it ("if there is an on-going request for the object
// locally, the receiver just waits until it gets the completed object",
// §3.4.1).
type pull struct {
	ready   chan struct{} // closed once buf is set (or err)
	buf     *buffer.Buffer
	err     error
	started time.Time // registration instant, for the inline tombstone check
}

// Put stores an immutable object (Table 1). Objects below the small-object
// threshold go inline into the directory (§3.2); larger objects stream
// through an ObjectWriter in pipeline blocks, with the partial location
// registered up front so remote receivers can start fetching while the
// copy is still running (§3.3). The object is pinned locally until Delete.
func (n *Node) Put(ctx context.Context, oid types.ObjectID, data []byte) error {
	if int64(len(data)) < n.cfg.InlineThreshold {
		return n.dir.PutInline(ctx, oid, data)
	}
	w, err := n.Create(ctx, oid, int64(len(data)))
	if err != nil {
		if errors.Is(err, types.ErrExists) {
			// Idempotent re-put (e.g. a restarted task re-producing its
			// output): re-register the existing complete copy.
			if existing, ok := n.store.Get(oid); ok && existing.Complete() {
				if err := n.dir.PutStarted(ctx, oid, existing.Size()); err != nil {
					return err
				}
				return n.dir.PutComplete(ctx, oid)
			}
		}
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Seal()
}

// deleteGrace is how long Get-style operations keep retrying after
// observing ErrDeleted. An object can be transiently deleted and
// re-created during reduce failure recovery (a failed root slot's target
// output is invalidated and re-produced by the replacement, §3.5.2);
// receivers ride through the window instead of surfacing a spurious error.
const deleteGrace = 1500 * time.Millisecond

// noteTombstone records that oid was deleted cluster-wide as observed by
// this node (EvictLocal fan-out or its own Delete call). The inline fast
// path consults it: an inline payload whose acquire overlapped the
// deletion is served to the caller but never materialized in the store,
// so the eviction fan-out cannot be outrun (resurrection).
func (n *Node) noteTombstone(oid types.ObjectID) {
	now := time.Now()
	n.tombMu.Lock()
	if n.tombs == nil {
		n.tombs = make(map[types.ObjectID]time.Time)
	}
	if len(n.tombs) > 1024 {
		for k, t := range n.tombs {
			if now.Sub(t) > deleteGrace {
				delete(n.tombs, k)
			}
		}
	}
	n.tombs[oid] = now
	n.tombMu.Unlock()
}

// tombstonedSince reports whether oid was tombstoned after the given
// instant (typically a pull's start time).
func (n *Node) tombstonedSince(oid types.ObjectID, since time.Time) bool {
	n.tombMu.Lock()
	t, ok := n.tombs[oid]
	n.tombMu.Unlock()
	return ok && t.After(since)
}

// retryTransient runs op, retrying while it fails with a transient
// deletion error (ErrDeleted/ErrAborted) inside the deleteGrace window.
// Any other error, a ctx cancellation, or the window expiring surfaces
// the last error. Every Get-shaped operation shares this one loop.
// Between attempts it blocks on await — an event-driven wakeup tied to
// the object's directory record — instead of a fixed-period poll, so a
// re-created object is retried the moment its first location registers.
func retryTransient[T any](ctx context.Context, await func(context.Context), op func() (T, error)) (T, error) {
	deadline := time.Now().Add(deleteGrace)
	for {
		v, err := op()
		if err == nil {
			return v, nil
		}
		if !errors.Is(err, types.ErrDeleted) && !errors.Is(err, types.ErrAborted) {
			return v, err
		}
		if time.Now().After(deadline) {
			return v, err
		}
		wctx, cancel := context.WithDeadline(ctx, deadline)
		await(wctx)
		cancel()
		if ctx.Err() != nil {
			var zero T
			return zero, ctx.Err()
		}
	}
}

// awaitRecreation returns the wakeup used by retryTransient: a directory
// watch on oid that fires on the next record change (normally the
// re-creation's PutStarted). If the record already shows life again — or
// the directory is unreachable — it returns immediately (the retry loop's
// grace deadline still bounds the overall wait).
func (n *Node) awaitRecreation(oid types.ObjectID) func(context.Context) {
	return func(ctx context.Context) {
		ch := make(chan struct{}, 1)
		rec, cancelWatch, err := n.dir.Watch(ctx, oid, func(directory.Update) {
			select {
			case ch <- struct{}{}:
			default:
			}
		})
		if err != nil && !errors.Is(err, types.ErrDeleted) {
			return
		}
		defer cancelWatch()
		if err == nil && (len(rec.Locs) > 0 || rec.Inline != nil) {
			return // re-created between the failure and the watch
		}
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
}

// getBuffer returns a complete local buffer for oid, retrying across
// transient deletions.
func (n *Node) getBuffer(ctx context.Context, oid types.ObjectID) (*buffer.Buffer, error) {
	return retryTransient(ctx, n.awaitRecreation(oid), func() (*buffer.Buffer, error) {
		buf, err := n.ensureLocal(ctx, oid)
		if err != nil {
			return nil, err
		}
		if err := buf.WaitComplete(ctx); err != nil {
			return nil, err
		}
		return buf, nil
	})
}

// GetRef returns a pinned, zero-copy, read-only view of the object,
// blocking until the object is fully present locally. The underlying
// store copy cannot be evicted while the ref is held; the caller must
// Release it. This is the handle form of the paper's immutable-get
// optimization (§3.3): no final store→worker copy is made.
func (n *Node) GetRef(ctx context.Context, oid types.ObjectID) (*ObjectRef, error) {
	// Fast path — the object is local and complete: pin it under the
	// store lock and hand out a pooled handle. Zero allocations, zero
	// copies (BenchmarkGetRef asserts this stays true).
	if buf, ok := n.store.Acquire(oid); ok {
		if buf.Complete() {
			return newRef(oid, buf), nil
		}
		buf.Unref()
	}
	return n.getRefSlow(ctx, oid)
}

func (n *Node) getRefSlow(ctx context.Context, oid types.ObjectID) (*ObjectRef, error) {
	return retryTransient(ctx, n.awaitRecreation(oid), func() (*ObjectRef, error) {
		if _, err := n.ensureLocal(ctx, oid); err != nil {
			return nil, err
		}
		// Re-acquire through the store so the pin is atomic with the
		// lookup: ensureLocal's buffer may already have been replaced by
		// a re-creation, and a complete copy could be evicted between the
		// pull finishing and the pin landing — Acquire pins whatever entry
		// is current, and a miss is treated as transient.
		buf, ok := n.store.Acquire(oid)
		if !ok {
			return nil, types.ErrAborted
		}
		if err := buf.WaitComplete(ctx); err != nil {
			buf.Unref()
			return nil, err
		}
		return newRef(oid, buf), nil
	})
}

// Get returns a private copy of the object, blocking until it is
// available. The copy out of the store is pipelined with the inbound
// transfer (§3.3). Small objects come straight from the directory cache.
// It is a compat shim over the ref machinery: the store entry is pinned
// for the duration of the copy-out.
func (n *Node) Get(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	return retryTransient(ctx, n.awaitRecreation(oid), func() ([]byte, error) { return n.getOnce(ctx, oid) })
}

func (n *Node) getOnce(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	buf, err := n.ensureLocal(ctx, oid)
	if err != nil {
		return nil, err
	}
	// Pin the entry we are streaming from so eviction cannot drop it
	// mid-copy. If the store entry was replaced (object re-created), keep
	// streaming the buffer we joined: its writers fail it if superseded.
	if pinned, ok := n.store.Acquire(oid); ok {
		if pinned == buf {
			defer pinned.Unref()
		} else {
			pinned.Unref()
		}
	}
	out := make([]byte, buf.Size())
	var off int64
	for off < buf.Size() {
		wm, _, err := buf.WaitAt(ctx, off)
		if err != nil {
			return nil, err
		}
		copy(out[off:wm], buf.Bytes()[off:wm])
		off = wm
	}
	return out, nil
}

// GetImmutable returns a read-only view of the object without the final
// store→worker copy ("optimization for immutable get", §3.3). The caller
// must not modify the returned slice.
//
// Compat shim over GetRef: the returned slice is NOT pinned — after this
// call returns, store pressure may evict the copy (the bytes stay valid
// to the Go runtime but the store forgets them). New code should hold an
// ObjectRef from GetRef instead and Release it when done.
func (n *Node) GetImmutable(ctx context.Context, oid types.ObjectID) ([]byte, error) {
	ref, err := n.GetRef(ctx, oid)
	if err != nil {
		return nil, err
	}
	data := ref.Bytes()
	ref.Release()
	return data, nil
}

// WaitLocal blocks until the object is fully present in the local store
// (fetching it if necessary) without copying it out.
func (n *Node) WaitLocal(ctx context.Context, oid types.ObjectID) error {
	_, err := n.getBuffer(ctx, oid)
	return err
}

// Delete removes every copy of the object cluster-wide (Table 1). The
// directory entry is tombstoned and each holding node evicts its copy.
func (n *Node) Delete(ctx context.Context, oid types.ObjectID) error {
	locs, err := n.dir.Delete(ctx, oid)
	if err != nil {
		return err
	}
	n.noteTombstone(oid)
	epoch := n.mapEpoch()
	var firstErr error
	for _, loc := range locs {
		if loc.Node == n.id {
			n.store.Delete(oid)
			continue
		}
		c, err := n.peerCtrl(ctx, string(loc.Node))
		if err != nil {
			if firstErr == nil && !errors.Is(err, types.ErrNodeDown) {
				firstErr = err
			}
			continue
		}
		resp, err := c.Call(ctx, wire.Message{Method: wire.MethodEvictLocal, OID: oid, Epoch: epoch})
		if err != nil {
			n.dropPeer(string(loc.Node), c)
			continue
		}
		if errors.Is(resp.ErrorOf(), types.ErrStaleMap) {
			// The holder has a newer cluster map than we do: adopt it and
			// re-issue the eviction with a current stamp so the copy is not
			// silently left behind.
			if cm, derr := types.DecodeClusterMap(resp.Payload); derr == nil {
				n.applyMap(cm)
			}
			epoch = n.mapEpoch()
			if _, err := c.Call(ctx, wire.Message{Method: wire.MethodEvictLocal, OID: oid, Epoch: epoch}); err != nil {
				n.dropPeer(string(loc.Node), c)
			}
		}
	}
	n.store.Delete(oid) // cover copies created after the directory snapshot
	if n.spill != nil {
		n.spill.Remove(oid)
	}
	return firstErr
}

// ensureLocal returns a local buffer for oid, starting (or joining) a
// receiver-driven pull when the object is remote. The returned buffer may
// still be filling; callers stream via WaitAt/WaitComplete.
func (n *Node) ensureLocal(ctx context.Context, oid types.ObjectID) (*buffer.Buffer, error) {
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return nil, types.ErrClosed
		}
		if buf, ok := n.store.Get(oid); ok {
			n.mu.Unlock()
			return buf, nil
		}
		if p, ok := n.pulls[oid]; ok {
			n.mu.Unlock()
			select {
			case <-p.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if p.err != nil {
				return nil, p.err
			}
			return p.buf, nil
		}
		p := &pull{ready: make(chan struct{}), started: time.Now()}
		n.pulls[oid] = p
		n.mu.Unlock()
		buf, err := n.startPull(ctx, oid, p)
		if err != nil {
			return nil, err
		}
		return buf, nil
	}
}

// startPull performs the first sender acquisition for a registered pull
// and launches the transfer loop. Large objects with several complete
// remote copies are striped: disjoint ranges are pulled from up to
// MaxSources senders concurrently, aggregating their egress bandwidth;
// everything else takes the classic single-sender pipelined pull.
func (n *Node) startPull(ctx context.Context, oid types.ObjectID, p *pull) (*buffer.Buffer, error) {
	fail := func(err error) (*buffer.Buffer, error) {
		p.err = err
		n.mu.Lock()
		if n.pulls[oid] == p {
			delete(n.pulls, oid)
		}
		n.mu.Unlock()
		close(p.ready)
		return nil, err
	}
	done := func(buf *buffer.Buffer) (*buffer.Buffer, error) {
		p.buf = buf
		n.mu.Lock()
		delete(n.pulls, oid)
		n.mu.Unlock()
		close(p.ready)
		return buf, nil
	}
	// detached serves a payload to the requesting Get from a buffer that
	// is NOT in the store: the object was deleted while the reply was in
	// flight, so materializing a copy the eviction fan-out already missed
	// would resurrect it. The overlapping caller still gets its bytes.
	detached := func(payload []byte) (*buffer.Buffer, error) {
		buf := buffer.New(int64(len(payload)))
		if err := buf.Append(payload); err != nil {
			return fail(err)
		}
		buf.Seal()
		return done(buf)
	}
	inline := func(payload []byte) (*buffer.Buffer, error) {
		// Small-object fast path: the payload came with the reply.
		if n.tombstonedSince(oid, p.started) {
			return detached(payload)
		}
		buf, err := n.store.InsertSealed(oid, payload, false)
		inserted := err == nil
		if errors.Is(err, types.ErrExists) {
			// A racing local writer owns the entry; use its buffer.
			if existing, ok := n.store.Get(oid); ok {
				buf, err = existing, nil
			}
		}
		if err != nil {
			return fail(err)
		}
		if inserted && n.tombstonedSince(oid, p.started) {
			// The eviction fan-out landed between the check above and the
			// insert; take our copy back out and serve detached. A joined
			// pre-existing entry is left alone — the fan-out owns it.
			n.store.Delete(oid)
			return detached(payload)
		}
		n.signalStoreChange()
		return done(buf)
	}

	// Spill tier first: an object this node demoted to disk restores
	// locally instead of going back to the network.
	if n.spill != nil {
		if buf, ok := n.restoreFromSpill(oid, p); ok {
			return buf, nil
		}
	}

	var lease directory.Lease
	acquired := false
	if n.cfg.MaxSources > 1 && n.cfg.StripeThreshold > 0 {
		ml, err := n.dir.AcquireSenders(ctx, oid, n.cfg.MaxSources)
		if err == nil && len(ml.Senders) > 1 {
			// Best link first: the striped path drains the fastest senders
			// hardest, and the single-lease fallback keeps Senders[0].
			ml.Senders = n.plan.rankSenders(ml.Senders)
		}
		switch {
		case err == nil && ml.Inline != nil:
			return inline(ml.Inline)
		case err == nil && len(ml.Senders) >= 2 && ml.Size >= n.cfg.StripeThreshold:
			buf, cerr := n.store.CreateChunked(oid, ml.Size, stripeChunk(ml.Size, len(ml.Senders)), false)
			if cerr != nil {
				rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
				for _, s := range ml.Senders {
					_ = n.dir.AbortTransfer(rctx, oid, s, false)
				}
				cancel()
				return fail(cerr)
			}
			n.signalStoreChange()
			p.buf = buf
			close(p.ready)
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.runStripedPull(oid, p, buf, ml)
			}()
			return buf, nil
		case err == nil && len(ml.Senders) > 0:
			// Leases granted but striping is not worthwhile (object below
			// the threshold, or a single eligible copy): keep the first
			// lease for the classic path and return the rest.
			if len(ml.Senders) > 1 {
				rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
				for _, s := range ml.Senders[1:] {
					_ = n.dir.AbortTransfer(rctx, oid, s, false)
				}
				cancel()
			}
			lease = directory.Lease{Sender: ml.Senders[0], Size: ml.Size, Gen: ml.Gen}
			acquired = true
		default:
			// No unleased complete copy right now (or the object is not
			// produced yet): fall through to the blocking single-sender
			// acquire, which also accepts partial copies.
		}
	}
	if !acquired {
		var err error
		lease, err = n.dir.AcquireSender(ctx, oid, true)
		if err != nil {
			return fail(err)
		}
		if lease.Inline != nil {
			return inline(lease.Inline)
		}
	}
	if lease.Size < 0 {
		_ = n.dir.AbortTransfer(ctx, oid, lease.Sender, false)
		return fail(fmt.Errorf("core: object %v has unknown size", oid))
	}
	buf, err := n.store.Create(oid, lease.Size, false)
	if err != nil {
		_ = n.dir.AbortTransfer(ctx, oid, lease.Sender, false)
		return fail(err)
	}
	n.signalStoreChange()
	p.buf = buf
	close(p.ready)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runPull(oid, p, buf, lease.Sender, lease.Gen)
	}()
	return buf, nil
}

// restoreFromSpill rehydrates a spilled object into the store, streaming
// file blocks through the buffer's watermark so readers (and onward
// relays) pipeline off the restore exactly as they would off a network
// pull. The spill file stays behind as the durable copy: the restored
// buffer is an unpinned cache over it, so eviction under continued
// pressure is cheap (no rewrite) and merely downgrades the directory
// location back to Spilled. ok=false means the object is not spilled, or
// a racing writer owns the store entry; the caller proceeds with a remote
// acquire.
func (n *Node) restoreFromSpill(oid types.ObjectID, p *pull) (*buffer.Buffer, bool) {
	size, ok := n.spill.Contains(oid)
	if !ok {
		return nil, false
	}
	// Plain Create, not CreateAdmit: a restore must not block on
	// admission (it is often what a blocked admission is waiting for);
	// it instead triggers demotion of colder objects, which is the
	// restore-under-eviction-pressure cycle the watermarks bound.
	buf, err := n.store.Create(oid, size, false)
	if err != nil {
		return nil, false
	}
	n.signalStoreChange()
	p.buf = buf
	close(p.ready)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			if n.pulls[oid] == p {
				delete(n.pulls, oid)
			}
			n.mu.Unlock()
		}()
		if err := n.spill.ReadInto(oid, n.cfg.PipelineBlock, buf.Append); err != nil {
			buf.Fail(err)
			n.store.Delete(oid)
			// Keep the durable file when the restore died of node
			// shutdown or a concurrent Delete (which tears the file down
			// itself) — only a genuinely unreadable file is dropped, so
			// the next attempt goes remote instead of looping on it.
			if n.ctx.Err() != nil || errors.Is(err, types.ErrClosed) || errors.Is(err, types.ErrDeleted) {
				return
			}
			n.spill.Remove(oid)
			rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
			_ = n.dir.RemoveLocation(rctx, oid)
			cancel()
			return
		}
		buf.Seal()
		rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
		_ = n.dir.PutComplete(rctx, oid) // promote Spilled → Complete
		cancel()
	}()
	return buf, true
}

// runPull executes the transfer loop with sender failover: on a broken
// sender it drops the dead location, re-acquires, and resumes from the
// current watermark (§3.5.1); when the object was re-created under a new
// generation, the stale prefix is discarded instead.
func (n *Node) runPull(oid types.ObjectID, p *pull, buf *buffer.Buffer, sender types.NodeID, gen int64) {
	ctx := n.ctx // pulls outlive the requesting call, like a real store
	finish := func() {
		n.mu.Lock()
		if n.pulls[oid] == p {
			delete(n.pulls, oid)
		}
		n.mu.Unlock()
	}
	defer finish()
	for {
		addr := string(sender)
		dial := func(c context.Context) (net.Conn, error) { return n.dialData(c, addr) }
		err := transport.PullObserved(ctx, dial, n.id, oid, buf.Watermark(), buf, n.linkObserver(sender))
		if err == nil {
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_ = n.dir.ReleaseSender(rctx, oid, sender, true)
			cancel()
			return
		}
		if ctx.Err() != nil {
			buf.Fail(types.ErrClosed)
			return
		}
		if errors.Is(err, types.ErrDeleted) {
			n.store.Delete(oid) // fails buf with ErrDeleted
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_ = n.dir.AbortTransfer(rctx, oid, sender, false)
			cancel()
			return
		}
		// Sender failed (socket liveness, §5.5): drop its location and
		// find another sender, resuming from our watermark.
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_ = n.dir.AbortTransfer(rctx, oid, sender, true)
		cancel()
		lease, err := n.dir.AcquireSender(ctx, oid, true)
		if err != nil {
			buf.Fail(err)
			n.store.Delete(oid)
			return
		}
		var ok bool
		if buf, gen, ok = n.rebindLease(oid, p, buf, lease, gen); !ok {
			return
		}
		sender = lease.Sender
	}
}

// rebindLease reconciles an in-progress buffer with a re-acquired lease
// after a sender failure: an object that reappeared inline aborts the
// pull, a re-creation with a different size replaces the buffer, and a
// new generation at the same size discards the stale prefix (§3.5.2). It
// returns the (possibly replaced) buffer and generation; ok is false when
// the pull cannot continue.
func (n *Node) rebindLease(oid types.ObjectID, p *pull, buf *buffer.Buffer, lease directory.Lease, gen int64) (*buffer.Buffer, int64, bool) {
	if lease.Inline != nil {
		// The object reappeared as an inline small object.
		buf.Fail(types.ErrAborted)
		n.store.Delete(oid)
		return buf, gen, false
	}
	if lease.Gen == gen && lease.Size == buf.Size() {
		return buf, gen, true
	}
	if lease.Size != buf.Size() {
		// Recreated with a different size: replace the buffer.
		n.store.Delete(oid)
		nb, cerr := n.store.Create(oid, lease.Size, false)
		if cerr != nil {
			buf.Fail(cerr)
			rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
			_ = n.dir.AbortTransfer(rctx, oid, lease.Sender, false)
			cancel()
			return buf, gen, false
		}
		n.signalStoreChange()
		n.mu.Lock()
		p.buf = nb
		n.mu.Unlock()
		buf = nb
	} else {
		buf.Reset(0)
	}
	return buf, lease.Gen, true
}

// linkObserver returns the receiver-side transfer observer that feeds the
// link estimator: the measured rate of a pull from sender is a direct
// bandwidth sample for that link (pipelined sources measure the effective
// path rate, which is what planning needs).
func (n *Node) linkObserver(sender types.NodeID) transport.Observer {
	return func(bytes int64, d time.Duration) { n.links.ObserveTransfer(sender, bytes, d) }
}

// stripeChunk picks the claim-grid granularity for a striped pull: the
// default ledger chunk, shrunk until every leased sender has at least one
// chunk to claim. Without this, an object smaller than two default chunks
// but above a low StripeThreshold would lease several senders and then
// hand the whole ledger to the first worker's claim, degrading to a
// single active sender that still paid the multi-lease round trips.
func stripeChunk(size int64, senders int) int64 {
	chunk := int64(buffer.DefaultLedgerChunk)
	if senders < 1 {
		senders = 1
	}
	if per := (size + int64(senders) - 1) / int64(senders); per < chunk {
		chunk = per
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// runStripedPull drains one object from several complete copies at once:
// each leased sender gets a worker that repeatedly claims the next run of
// missing chunks from the buffer's ledger and issues a ranged pull for it.
// A failed sender's worker returns its unwritten chunks to the ledger, so
// the surviving workers re-fetch exactly the missing ranges — no reset to
// the lowest contiguous offset. If every worker dies with bytes still
// missing, the repair loop takes over with single-sender failover.
func (n *Node) runStripedPull(oid types.ObjectID, p *pull, buf *buffer.Buffer, ml directory.MultiLease) {
	ctx := n.ctx // pulls outlive the requesting call, like a real store
	defer func() {
		n.mu.Lock()
		if n.pulls[oid] == p {
			delete(n.pulls, oid)
		}
		n.mu.Unlock()
	}()
	// Claims go out in ledger-chunk-granular spans: for small striped
	// objects the grid was shrunk (stripeChunk) so each sender gets a
	// range, and a PipelineBlock-sized claim span would undo that by
	// absorbing the whole grid into the first claim. The planner scales
	// each sender's span with its estimated bandwidth, so faster links
	// claim longer runs per trip.
	spans := n.plan.stripeSpans(ml.Senders, buf.ChunkSize())
	var wg sync.WaitGroup
	for i, sender := range ml.Senders {
		wg.Add(1)
		go func(sender types.NodeID, span int64) {
			defer wg.Done()
			n.stripeWorker(ctx, oid, buf, sender, span)
		}(sender, spans[i])
	}
	wg.Wait()
	if ctx.Err() != nil {
		buf.Fail(types.ErrClosed)
		return
	}
	if buf.Failed() != nil {
		// Deleted (or otherwise failed) mid-stripe; drop the partial copy.
		n.store.Delete(oid)
		return
	}
	if buf.Present() == buf.Size() {
		buf.Seal()
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_ = n.dir.PutComplete(rctx, oid)
		cancel()
		return
	}
	n.repairPull(oid, p, buf, ml.Gen)
}

// stripeWorker pulls claimed ranges from one leased sender until the
// ledger has nothing left to claim or the sender fails.
func (n *Node) stripeWorker(ctx context.Context, oid types.ObjectID, buf *buffer.Buffer, sender types.NodeID, span int64) {
	addr := string(sender)
	dial := func(c context.Context) (net.Conn, error) { return n.dialData(c, addr) }
	for {
		off, length, ok := buf.ClaimNext(span)
		if !ok {
			rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
			_ = n.dir.ReleaseSender(rctx, oid, sender, false)
			cancel()
			return
		}
		if err := transport.PullRangeObserved(ctx, dial, n.id, oid, off, length, buf, n.linkObserver(sender)); err != nil {
			buf.ReleaseClaim(off, length)
			rctx, cancel := context.WithTimeout(n.ctx, 10*time.Second)
			if errors.Is(err, types.ErrDeleted) {
				// The object was deleted cluster-wide; fail the local
				// buffer so the other workers stop too.
				n.store.Delete(oid)
				_ = n.dir.AbortTransfer(rctx, oid, sender, false)
			} else {
				// Sender failed (socket liveness, §5.5): drop its
				// location; surviving workers absorb the released range.
				_ = n.dir.AbortTransfer(rctx, oid, sender, ctx.Err() == nil)
			}
			cancel()
			return
		}
	}
}

// repairPull completes a buffer with missing ranges (after every striped
// worker failed) by claim-looping against one acquired sender at a time,
// with the classic failover rules: dead senders are dropped and
// re-acquired, a new generation discards the stale bytes, and deletion
// tears the local copy down.
func (n *Node) repairPull(oid types.ObjectID, p *pull, buf *buffer.Buffer, gen int64) {
	ctx := n.ctx
	span := int64(n.cfg.PipelineBlock)
	for {
		lease, err := n.dir.AcquireSender(ctx, oid, true)
		if err != nil {
			buf.Fail(err)
			n.store.Delete(oid)
			return
		}
		var ok bool
		if buf, gen, ok = n.rebindLease(oid, p, buf, lease, gen); !ok {
			return
		}
		perr := n.pullMissing(ctx, oid, buf, lease.Sender, span)
		if perr == nil {
			buf.Seal()
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_ = n.dir.ReleaseSender(rctx, oid, lease.Sender, true)
			cancel()
			return
		}
		if ctx.Err() != nil {
			buf.Fail(types.ErrClosed)
			return
		}
		if errors.Is(perr, types.ErrDeleted) {
			n.store.Delete(oid)
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_ = n.dir.AbortTransfer(rctx, oid, lease.Sender, false)
			cancel()
			return
		}
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_ = n.dir.AbortTransfer(rctx, oid, lease.Sender, true)
		cancel()
	}
}

// pullMissing claim-loops the buffer's missing ranges from one sender. It
// returns nil once every byte is present, or the first pull error.
func (n *Node) pullMissing(ctx context.Context, oid types.ObjectID, buf *buffer.Buffer, sender types.NodeID, span int64) error {
	addr := string(sender)
	dial := func(c context.Context) (net.Conn, error) { return n.dialData(c, addr) }
	for {
		off, length, ok := buf.ClaimNext(span)
		if !ok {
			if err := buf.Failed(); err != nil {
				return err
			}
			if buf.Present() != buf.Size() {
				// Defensive: nothing claimable yet bytes missing can only
				// mean another writer holds claims, which repair never
				// races with.
				return types.ErrAborted
			}
			return nil
		}
		if err := transport.PullRangeObserved(ctx, dial, n.id, oid, off, length, buf, n.linkObserver(sender)); err != nil {
			buf.ReleaseClaim(off, length)
			return err
		}
	}
}
