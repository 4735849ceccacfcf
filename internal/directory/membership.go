// Cluster membership on top of shard replication. The epoch-versioned
// ClusterMap (see types/clustermap.go) is owned by the membership shard
// (shard 0): its primary resolves join/drain/remove transitions and ships
// the resulting map through the shard's own replicated op log
// (MethodMapPush inside the MethodReplicate machinery), so the map enjoys
// exactly the same durability as directory state. Propagation to everyone
// else is best-effort push plus stale-epoch bounces: stamped requests
// carrying an older epoch get ErrStaleMap with the current encoded map in
// the payload, and the membership section of the shard-0 snapshot catches
// replicas that missed every push.
//
// Installing a newer map re-derives the shard groups and reconciles this
// server's hosted replicas against them:
//
//   - newly responsible for a shard → create an out-of-sync backup; the
//     current primary's heartbeat notices (resp.Wait) and pushes a
//     snapshot, exactly the PR-5 resync path;
//   - rotated out as a backup → drop the replica immediately;
//   - rotated out as the primary → become a retiring lame duck: keep
//     serving and heartbeating the new group until some successor is
//     fully caught up, then step out and let lease expiry promote it.
//
// The repair scanner runs on shard primaries: it walks the shard's
// records, counts whole copies held by active (non-draining) members, and
// schedules MethodRepairPull copy-outs toward under-replicated objects,
// reusing the ordinary data-plane pull on the target node.

package directory

import (
	"context"
	"encoding/binary"
	"time"

	"hoplite/internal/types"
	"hoplite/internal/wire"
)

// membershipShard is the shard whose replica group owns the cluster map.
const membershipShard = 0

// Drain sub-codes carried in MethodDrain's Num field.
const (
	// DrainStart marks the node draining: excluded from shard groups and
	// from the replication-factor count, still serving.
	DrainStart = 0
	// DrainFinish removes the drained node from the map; sent by the
	// draining node once it holds no sole copies and no shard replicas.
	DrainFinish = 1
	// DrainDead removes a permanently lost node from the map (operator- or
	// harness-declared); its locations are purged and repair re-replicates.
	DrainDead = 2
)

const (
	// DefaultRepairInterval is the re-replication scanner period.
	DefaultRepairInterval = 250 * time.Millisecond
	// maxRepairsPerPass bounds the copy-outs scheduled by one scanner pass,
	// so a mass failure re-replicates in waves instead of stampeding the
	// survivors.
	maxRepairsPerPass = 32
	// repairPullTimeout bounds one MethodRepairPull call (the target pulls
	// the whole object within it).
	repairPullTimeout = 60 * time.Second
)

// repairKey identifies one in-flight repair copy-out.
type repairKey struct {
	oid    types.ObjectID
	target types.NodeID
}

// staleMapRespLocked builds the ErrStaleMap bounce carrying the current
// encoded map.
func (s *Server) staleMapRespLocked() wire.Message {
	var resp wire.Message
	resp.SetError(types.ErrStaleMap)
	resp.Epoch = s.cmap.Epoch
	resp.Payload = append([]byte(nil), s.encodedMap...)
	return resp
}

// ClusterMap returns the currently installed map.
func (s *Server) ClusterMap() types.ClusterMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cmap.Clone()
}

// InstallMap installs m if it is newer than the current map, returning
// whether it was installed. The embedding node calls this when its client
// learns a newer map first (via a bounce) than the shard server did.
func (s *Server) InstallMap(m types.ClusterMap) bool {
	s.mu.Lock()
	after := s.installMapLocked(m)
	installed := s.cmap.Epoch == m.Epoch
	s.mu.Unlock()
	for _, fn := range after {
		fn()
	}
	return installed
}

// installMapLocked makes next the server's map if strictly newer and
// reconciles hosted replicas with the re-derived groups. It returns
// closures (member-removal purges, the OnMap hook) that the caller must
// run after releasing s.mu.
func (s *Server) installMapLocked(next types.ClusterMap) []func() {
	if s.closed || next.Epoch <= s.cmap.Epoch || next.NumShards != s.cmap.NumShards {
		return nil
	}
	prev := s.cmap
	s.cmap = next.Clone()
	s.encodedMap = types.EncodeClusterMap(nil, s.cmap)
	var after []func()
	self := s.cfg.Self
	for i, g := range s.cmap.DeriveGroups() {
		selfIdx := -1
		for j, a := range g {
			if a == self {
				selfIdx = j
				break
			}
		}
		rep := s.reps[i]
		switch {
		case selfIdx >= 0 && rep == nil:
			// Newly responsible: join as an out-of-sync backup. The shard's
			// current primary installed (or will install) this same map, so
			// its heartbeat reaches us, sees resp.Wait, and pushes a
			// snapshot; if the whole group is fresh, the lease monitor
			// promotes the best-placed replica instead.
			r := &replica{
				shard:    i,
				group:    append([]string(nil), g...),
				selfIdx:  selfIdx,
				booted:   true,
				needSync: true,
				lastBeat: time.Now(),
				pending:  make(map[int64]wire.Message),
				backups:  make(map[string]*backupState),
				dedupe:   make(map[dedupeKey]wire.Message),
			}
			for _, addr := range g {
				if addr != self {
					r.backups[addr] = &backupState{lastSeq: -1}
				}
			}
			s.reps[i] = r
		case selfIdx >= 0:
			rep.group = append([]string(nil), g...)
			rep.selfIdx = selfIdx
			rep.retiring = false
			s.rebuildBackupsLocked(rep)
		case rep != nil && rep.primary && len(g) > 0:
			// Rotated out while primary: lame-duck until a successor in the
			// new group is caught up (see beatBackups), syncing it via the
			// ordinary heartbeat/snapshot machinery meanwhile.
			rep.retiring = true
			rep.group = append([]string(nil), g...)
			rep.selfIdx = len(g) // absent: loses every primacy tie-break
			s.rebuildBackupsLocked(rep)
		case rep != nil && !rep.primary:
			delete(s.reps, i)
			s.wakeShardLocked(i)
		}
	}
	// Purge locations of members that left the map, through the normal
	// replicated-mutation path on every shard this server leads.
	var removed []types.NodeID
	for _, mem := range prev.Members {
		if s.cmap.MemberIndex(mem.Addr) < 0 {
			removed = append(removed, mem.Addr)
		}
	}
	if len(removed) > 0 {
		var lead []int
		for i, r := range s.reps {
			if r.primary && !r.needSync {
				lead = append(lead, i)
			}
		}
		epoch := s.cmap.Epoch
		if len(lead) > 0 {
			after = append(after, func() {
				for _, node := range removed {
					for _, shard := range lead {
						_ = s.mutate(wire.Message{
							Method: wire.MethodPurgeNode,
							Node:   node,
							Offset: int64(shard),
							Epoch:  epoch,
						})
					}
				}
			})
		}
	}
	if s.cfg.OnMap != nil {
		cm := s.cmap.Clone()
		hook := s.cfg.OnMap
		after = append(after, func() { hook(cm) })
	}
	return after
}

// rebuildBackupsLocked reconciles a replica's backup tracking with its
// (possibly changed) group, preserving progress state for members that
// stayed.
func (s *Server) rebuildBackupsLocked(r *replica) {
	old := r.backups
	r.backups = make(map[string]*backupState)
	for _, addr := range r.group {
		if addr == s.cfg.Self {
			continue
		}
		if b, ok := old[addr]; ok {
			r.backups[addr] = b
		} else {
			r.backups[addr] = &backupState{lastSeq: -1}
		}
	}
}

// membership resolves a join or drain transition on the membership
// shard's primary and commits the resulting map through the shard's
// replicated op log.
func (s *Server) membership(m wire.Message) wire.Message {
	s.mu.Lock()
	rep, resp, ok := s.admitLocked(&m)
	if !ok {
		s.mu.Unlock()
		return resp
	}
	var next types.ClusterMap
	var err error
	switch {
	case m.Method == wire.MethodJoin:
		// The request payload carries the joiner's optional locality label
		// (rack/DC), recorded on its Member entry for link-state
		// aggregation.
		next, err = s.cmap.WithJoin(m.Node, m.Complete, string(m.Payload))
	case m.Num == DrainStart:
		next, err = s.cmap.WithDrain(m.Node)
	default: // DrainFinish, DrainDead
		next, err = s.cmap.WithRemove(m.Node)
	}
	if err != nil {
		s.mu.Unlock()
		resp.SetError(err)
		return resp
	}
	if next.Epoch == s.cmap.Epoch {
		// Idempotent transition (retry, or already in the desired state):
		// answer with the current map without burning an epoch.
		resp.Epoch = s.cmap.Epoch
		resp.Payload = append([]byte(nil), s.encodedMap...)
		s.mu.Unlock()
		return resp
	}
	op := wire.Message{
		Method:  wire.MethodMapPush,
		Node:    m.Node,
		Num2:    m.Num2,
		Payload: types.EncodeClusterMap(nil, next),
	}
	after := s.installMapLocked(next)
	resp.Epoch = s.cmap.Epoch
	resp.Payload = append([]byte(nil), s.encodedMap...)
	fwd := s.commitLocked(rep, op, resp)
	targets := s.pushTargetsLocked(m.Node)
	s.mu.Unlock()
	committed := fwd == nil || fwd()
	for _, fn := range after {
		fn()
	}
	s.pushMapAsync(targets)
	if !committed {
		// Deposed mid-commit: transitions are idempotent, so bounce the
		// caller to the successor and let it re-resolve.
		return s.deposedResp(rep)
	}
	return resp
}

// pushTargetsLocked lists the control addresses the new map should be
// pushed to: every member except this server, plus the node named by the
// transition (so a node finishing its drain sees itself removed).
func (s *Server) pushTargetsLocked(subject types.NodeID) []string {
	var out []string
	seen := map[string]bool{s.cfg.Self: true}
	add := func(addr string) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	for _, mem := range s.cmap.Members {
		add(string(mem.Addr))
	}
	add(string(subject))
	return out
}

// pushMapAsync pushes the current map to targets, best effort: a member
// that misses the push catches up on its next stale-epoch bounce.
func (s *Server) pushMapAsync(targets []string) {
	if len(targets) == 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	m := wire.Message{
		Method:  wire.MethodMapPush,
		Epoch:   s.cmap.Epoch,
		Payload: append([]byte(nil), s.encodedMap...),
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for _, addr := range targets {
			if _, err := s.callReplica(addr, m); err != nil {
				// callReplica dropped the failed connection (it may have
				// been a stale one to a restarted member); one retry dials
				// fresh before giving up on this target.
				_, _ = s.callReplica(addr, m)
			}
		}
	}()
}

// pullMapFrom fetches a peer's cluster map and installs it — the converse
// of pushMapAsync, used when heartbeat anti-entropy reveals a peer ahead
// of this server's epoch.
func (s *Server) pullMapFrom(addr string) {
	resp, err := s.callReplica(addr, wire.Message{Method: wire.MethodMapGet})
	if err != nil || resp.ErrorOf() != nil {
		return
	}
	if next, derr := types.DecodeClusterMap(resp.Payload); derr == nil {
		s.InstallMap(next)
	}
}

// mapPush installs a directly pushed map (primary → member fan-out).
func (s *Server) mapPush(m wire.Message) wire.Message {
	var resp wire.Message
	next, err := types.DecodeClusterMap(m.Payload)
	if err != nil {
		resp.SetError(err)
		return resp
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		resp.SetError(types.ErrClosed)
		return resp
	}
	after := s.installMapLocked(next)
	resp.Epoch = s.cmap.Epoch
	s.mu.Unlock()
	for _, fn := range after {
		fn()
	}
	return resp
}

// mapGet answers with the current encoded map.
func (s *Server) mapGet() wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	var resp wire.Message
	resp.Epoch = s.cmap.Epoch
	resp.Payload = append([]byte(nil), s.encodedMap...)
	return resp
}

// status reports membership observability for the shard in m.Offset,
// answered by the shard's primary (so counts reflect authoritative
// state): Num carries the shard's under-replicated object count, Offset
// the number of objects whose only whole copies sit on m.Node (when set),
// Size the shard's entry count, and the payload the current encoded map.
func (s *Server) status(m wire.Message) wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, resp, ok := s.admitLocked(&m)
	if !ok {
		return resp
	}
	resp.Gen = rep.epoch
	resp.Complete = true
	resp.Epoch = s.cmap.Epoch
	resp.Payload = append([]byte(nil), s.encodedMap...)
	under, total := s.shardRepairStatsLocked(rep.shard)
	resp.Num = int64(under)
	resp.Size = int64(total)
	if m.Node != "" {
		resp.Offset = int64(s.soleCopiesShardLocked(rep.shard, m.Node))
	}
	return resp
}

// repairTargetLocked is the effective replication target: the map's
// ObjectRF clamped to the active member count (a 2-node cluster with
// ObjectRF 3 would otherwise never converge).
func (s *Server) repairTargetLocked() int {
	target := s.cmap.ObjectRF
	n := 0
	for _, mem := range s.cmap.Members {
		if mem.State == types.MemberActive {
			n++
		}
	}
	if target > n {
		target = n
	}
	return target
}

// shardRepairStatsLocked counts the shard's live entries and how many of
// them are under-replicated: fewer whole copies on active members than
// the effective target, while at least one whole copy survives somewhere
// to repair from.
func (s *Server) shardRepairStatsLocked(shard int) (under, total int) {
	target := s.repairTargetLocked()
	for oid, e := range s.entries {
		if s.shardOfOID(oid) != shard {
			continue
		}
		if e.deleted {
			continue
		}
		total++
		if e.inline != nil {
			continue // payload lives in the directory itself
		}
		activeWhole, anyWhole := 0, false
		for n, p := range e.prog {
			if !p.HasAll() {
				continue
			}
			if st, ok := s.cmap.MemberState(n); ok {
				anyWhole = true
				if st == types.MemberActive {
					activeWhole++
				}
			}
		}
		if anyWhole && activeWhole < target {
			under++
		}
	}
	return under, total
}

// soleCopiesShardLocked counts the shard's objects whose only whole
// copies on active members sit on node — the objects that would be lost
// if node left right now. Copies on other draining members do not count
// as cover, so concurrent drains stay safe.
func (s *Server) soleCopiesShardLocked(shard int, node types.NodeID) int {
	count := 0
	for oid, e := range s.entries {
		if s.shardOfOID(oid) != shard {
			continue
		}
		if e.deleted || e.inline != nil {
			continue
		}
		holds, covered := false, false
		for n, p := range e.prog {
			if !p.HasAll() {
				continue
			}
			if n == node {
				holds = true
			} else if s.cmap.ActiveHolder(n) {
				covered = true
			}
		}
		if holds && !covered {
			count++
		}
	}
	return count
}

// UnderReplicated reports the under-replicated object count across the
// shards this server currently leads; used by tests and the drain loop.
func (s *Server) UnderReplicated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	under := 0
	for shard, rep := range s.reps {
		if !rep.primary || rep.needSync {
			continue
		}
		u, _ := s.shardRepairStatsLocked(shard)
		under += u
	}
	return under
}

// HostedReplicas reports how many shard replicas this server hosts
// (including a retiring lame-duck primary); a draining node waits for
// zero before leaving.
func (s *Server) HostedReplicas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reps)
}

// ShardRole describes one hosted replica for observability and the chaos
// harness's one-primary-per-epoch invariant.
type ShardRole struct {
	Shard    int
	Primary  bool
	Retiring bool
	Syncing  bool
	Epoch    int64
	Seq      int64
}

// Roles snapshots every hosted replica's role.
func (s *Server) Roles() []ShardRole {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardRole, 0, len(s.reps))
	for shard, r := range s.reps {
		out = append(out, ShardRole{
			Shard:    shard,
			Primary:  r.primary,
			Retiring: r.retiring,
			Syncing:  r.needSync,
			Epoch:    r.epoch,
			Seq:      r.seq,
		})
	}
	return out
}

// callReplicaTimeout is callReplica with a caller-chosen deadline, for
// repair pulls that stream whole objects.
func (s *Server) callReplicaTimeout(addr string, m wire.Message, d time.Duration) (wire.Message, error) {
	c, err := s.conn(addr)
	if err != nil {
		return wire.Message{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	resp, err := c.Call(ctx, m)
	cancel()
	if err != nil {
		s.dropConn(addr, c)
		return wire.Message{}, err
	}
	return resp, nil
}

// repairLoop periodically re-replicates under-replicated objects on the
// shards this server leads.
func (s *Server) repairLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.repairPass()
	}
}

// repairPass scans led shards for under-replicated objects and schedules
// bounded copy-outs: each picks an active non-holder target on a
// per-object ring and asks it to pull through the ordinary data plane
// (MethodRepairPull → the target's striped/pipelined fetch), which
// registers the new complete copy in the directory as a side effect.
func (s *Server) repairPass() {
	s.mu.Lock()
	if s.closed || s.cmap.ObjectRF < 1 {
		s.mu.Unlock()
		return
	}
	var active []types.NodeID
	for _, mem := range s.cmap.Members {
		if mem.State == types.MemberActive {
			active = append(active, mem.Addr)
		}
	}
	target := s.repairTargetLocked()
	var jobs []repairKey
	for oid, e := range s.entries {
		if len(jobs) >= maxRepairsPerPass {
			break
		}
		rep := s.reps[s.shardOfOID(oid)]
		if rep == nil || !rep.primary || rep.needSync {
			continue
		}
		if e.deleted || e.inline != nil || len(active) == 0 {
			continue
		}
		activeWhole, anyWhole := 0, false
		for n, p := range e.prog {
			if !p.HasAll() {
				continue
			}
			if st, ok := s.cmap.MemberState(n); ok {
				anyWhole = true
				if st == types.MemberActive {
					activeWhole++
				}
			}
		}
		if !anyWhole || activeWhole >= target {
			continue
		}
		need := target - activeWhole
		start := int(binary.BigEndian.Uint64(oid[:8]) % uint64(len(active)))
		for k := 0; k < len(active) && need > 0; k++ {
			cand := active[(start+k)%len(active)]
			if _, holds := e.prog[cand]; holds {
				continue // already holds or is already pulling
			}
			key := repairKey{oid: oid, target: cand}
			if s.repairing[key] {
				need-- // an earlier pass is already filling this slot
				continue
			}
			jobs = append(jobs, key)
			need--
		}
	}
	for _, j := range jobs {
		s.repairing[j] = true
	}
	epoch := s.cmap.Epoch
	if len(jobs) > 0 {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if len(jobs) == 0 {
		return
	}
	go func() {
		defer s.wg.Done()
		for _, j := range jobs {
			// Failures (target down, object gone meanwhile) simply leave the
			// object under-replicated for the next pass to retry.
			_, _ = s.callReplicaTimeout(string(j.target), wire.Message{
				Method: wire.MethodRepairPull,
				OID:    j.oid,
				Epoch:  epoch,
			}, repairPullTimeout)
			s.mu.Lock()
			delete(s.repairing, j)
			s.mu.Unlock()
		}
	}()
}
