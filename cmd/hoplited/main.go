// Command hoplited runs one Hoplite object-store node over plain TCP — the
// production deployment mode. Every node of a cluster runs hoplited and
// boots from the epoch-versioned cluster map: with no topology flag the
// daemon founds a single-node cluster hosting the only directory shard,
// -bootstrap founds a cluster of several shard hosts, and -join admits the
// daemon into a running cluster through any live member.
//
// -listen must be the address peers dial: a node's ID is its listen
// address, and the cluster map names members by it.
//
//	# head node (founds the cluster, hosts the only directory shard)
//	hoplited -listen 10.0.0.1:7077
//
//	# worker nodes
//	hoplited -listen 10.0.0.2:7077 -join 10.0.0.1:7077
//	hoplited -listen 10.0.0.3:7077 -join 10.0.0.1:7077
//
//	# replicated directory: three founding shard hosts boot with identical
//	# -bootstrap lists (each shard on 2 of them in succession order);
//	# later nodes join (and leave) the running cluster
//	hoplited -listen 10.0.0.1:7077 -bootstrap 10.0.0.1:7077,10.0.0.2:7077,10.0.0.3:7077 -replication 2
//	hoplited -listen 10.0.0.2:7077 -bootstrap 10.0.0.1:7077,10.0.0.2:7077,10.0.0.3:7077 -replication 2
//	hoplited -listen 10.0.0.3:7077 -bootstrap 10.0.0.1:7077,10.0.0.2:7077,10.0.0.3:7077 -replication 2
//	hoplited -listen 10.0.0.4:7077 -join 10.0.0.1:7077          # scale-out
//	hoplite-cli -seeds 10.0.0.1:7077 drain 10.0.0.4:7077        # scale-in
//
//	# bounded memory with a disk spill tier (out-of-core working sets)
//	hoplited -listen 10.0.0.2:7077 -join 10.0.0.1:7077 \
//	    -memory-limit 8589934592 -spill-dir /data/hoplite-spill
//
// With -memory-limit, Put/Create apply admission backpressure instead of
// growing past the budget; -spill-dir, which requires -memory-limit,
// demotes cold objects to disk and serves (or restores) them from there.
// The spill directory is rescanned on restart, so a restarted daemon
// re-offers the objects it spilled. Knobs without a flag run at their
// defaults; control-plane writes always coalesce. Use hoplite-cli against
// any node's address; see docs/OPERATIONS.md for the full tuning guide.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hoplite"
	"hoplite/internal/netem"
	"hoplite/internal/types"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on (control + data plane)")
	replication := flag.Int("replication", 1, "with -bootstrap: directory shard replication factor R; shard i is replicated on the founding members i..i+R-1 (mod n)")
	memLimit := flag.Int64("memory-limit", 0, "in-memory store budget in bytes with admission backpressure (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "directory for the disk spill tier (empty = spill disabled; requires -memory-limit); rescanned on restart")
	inline := flag.Int64("inline-threshold", 0, "small-object inline threshold in bytes (default 64 KiB, negative disables)")
	bootstrap := flag.String("bootstrap", "", "comma-separated founding member addresses, every one an active shard host; all founding daemons must be given the identical list (default: found a single-node cluster)")
	join := flag.String("join", "", "comma-separated seed addresses of a running cluster to join at startup (elastic scale-out)")
	storageOnly := flag.Bool("storage-only", false, "with -join: join as a pure storage member, never hosting directory shard replicas")
	objectRepl := flag.Int("object-replication", 1, "with -bootstrap: object replication target the repair scanner restores after drains and declared node losses")
	repairEvery := flag.Duration("repair-interval", 0, "re-replication scanner period (0 = default 250ms, negative disables)")
	schedClasses := flag.Int("sched-classes", 0, "egress scheduler classes: 2 (default) isolates latency-sensitive small pulls from bulk transfers, 1 disables scheduling")
	locality := flag.String("locality", "", "locality domain label for this node (e.g. a rack or DC name); unmeasured links borrow their domain's mean estimate")
	flag.Parse()

	if *spillDir != "" && *memLimit <= 0 {
		log.Fatal("hoplited: -spill-dir requires -memory-limit: with an unbounded store nothing is ever demoted")
	}
	if *bootstrap != "" && *join != "" {
		log.Fatal("hoplited: -bootstrap and -join are mutually exclusive")
	}

	fab := &netem.TCP{ListenAddr: *listen}
	ln, err := fab.Listen("")
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	// -bootstrap builds the founding epoch-1 cluster map (identical on
	// every founding daemon); -join asks a running cluster's membership
	// shard to admit this node; with neither the node founds a
	// single-node cluster of its own.
	var initialMap *types.ClusterMap
	if *bootstrap != "" {
		initialMap, err = foundingMap(*bootstrap, *replication, *objectRepl, *locality, ln.Addr().String(), *listen)
		if err != nil {
			log.Fatalf("hoplited: -bootstrap: %v", err)
		}
	}
	node, err := hoplite.NewNode(hoplite.Config{
		Fabric:          fab,
		Listener:        ln,
		InitialMap:      initialMap,
		JoinAddrs:       splitList(*join),
		JoinStorageOnly: *storageOnly,
		Locality:        *locality,
		Tuning: hoplite.Tuning{
			RepairInterval:  *repairEvery,
			MemoryLimit:     *memLimit,
			SpillDir:        *spillDir,
			InlineThreshold: *inline,
			SchedClasses:    *schedClasses,
		},
	})
	if err != nil {
		log.Fatalf("start node: %v", err)
	}
	cm := node.ClusterMap()
	fmt.Printf("hoplited: node %s up (membership epoch %d, %d members)\n", node.Addr(), cm.Epoch, len(cm.Members))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("hoplited: shutting down")
	node.Close()
}

// splitList splits a comma-separated address list, trimming spaces.
func splitList(list string) []string {
	if list == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(list, ",") {
		out = append(out, strings.TrimSpace(s))
	}
	return out
}

// foundingMap builds the epoch-1 cluster map a -bootstrap list names:
// every member is an active shard host, each hosting one shard. The list
// carries no locality labels, so the daemon stamps its own entry — the one
// matching any of self — with locality; -join members propagate their
// label through the membership shard instead. An empty or repeated entry
// is an error: either would found a map whose members cannot all be
// dialed.
func foundingMap(list string, replication, objectRF int, locality string, self ...string) (*types.ClusterMap, error) {
	if replication < 1 {
		replication = 1
	}
	members := splitList(list)
	cm := &types.ClusterMap{
		Epoch:     1,
		NumShards: len(members),
		DirRF:     replication,
		ObjectRF:  objectRF,
	}
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("empty member address at position %d of %q", i+1, list)
		}
		if cm.MemberIndex(types.NodeID(m)) >= 0 {
			return nil, fmt.Errorf("member %s listed twice", m)
		}
		mem := types.Member{Addr: types.NodeID(m), State: types.MemberActive, ShardHost: true}
		for _, a := range self {
			if m == a {
				mem.Locality = locality
			}
		}
		cm.Members = append(cm.Members, mem)
	}
	return cm, nil
}
