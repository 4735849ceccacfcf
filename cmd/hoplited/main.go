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
// growing past the budget; with -spill-dir, cold objects are demoted to
// disk and served (or restored) from there. The spill directory is
// rescanned on restart, so a restarted daemon re-offers the objects it
// spilled. Use hoplite-cli against any node's address; see
// docs/OPERATIONS.md for the full tuning guide.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
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
	capacity := flag.Int64("capacity", 0, "legacy store capacity in bytes (0 = unlimited); prefer -memory-limit")
	memLimit := flag.Int64("memory-limit", 0, "in-memory store budget in bytes with admission backpressure (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "directory for the disk spill tier (empty = spill disabled); rescanned on restart")
	spillHigh := flag.Float64("spill-high", 0, "demotion high watermark as a fraction of -memory-limit (default 0.90)")
	spillLow := flag.Float64("spill-low", 0, "demotion low watermark as a fraction of -memory-limit (default 0.70)")
	inline := flag.Int64("inline-threshold", 0, "small-object inline threshold in bytes (default 64 KiB, negative disables)")
	batchDelay := flag.Duration("batch-delay", 0, "control-plane write-coalescing window (0 = opportunistic, negative disables batching)")
	batchBytes := flag.Int("batch-bytes", 0, "flush a batching window early at this many queued bytes (0 = default 256 KiB)")
	locCache := flag.Int("loc-cache", 0, "location cache entries per node (0 = default 4096, negative disables)")
	bootstrap := flag.String("bootstrap", "", "comma-separated founding member addresses, every one an active shard host; all founding daemons must be given the identical list (default: found a single-node cluster)")
	join := flag.String("join", "", "comma-separated seed addresses of a running cluster to join at startup (elastic scale-out)")
	storageOnly := flag.Bool("storage-only", false, "with -join: join as a pure storage member, never hosting directory shard replicas")
	objectRepl := flag.Int("object-replication", 1, "with -bootstrap: object replication target the repair scanner restores after drains and declared node losses")
	repairEvery := flag.Duration("repair-interval", 0, "re-replication scanner period (0 = default 250ms, negative disables)")
	schedClasses := flag.Int("sched-classes", 0, "egress scheduler classes: 2 (default) isolates latency-sensitive small pulls from bulk transfers, 1 disables scheduling")
	bulkCutoff := flag.Int64("bulk-cutoff", 0, "pull span in bytes at or above which a pull is classed as bulk by the egress scheduler (0 = default 1 MiB)")
	linkHalfLife := flag.Duration("link-half-life", 0, "decay half-life for measured link estimates on quiet links (0 = default 10s)")
	locality := flag.String("locality", "", "locality domain label for this node (e.g. a rack or DC name); unmeasured links borrow their domain's mean estimate")
	flag.Parse()

	if *spillDir != "" && *memLimit <= 0 && *capacity <= 0 {
		log.Fatal("hoplited: -spill-dir requires -memory-limit (or -capacity): with an unbounded store nothing is ever demoted")
	}

	// -bootstrap builds the founding epoch-1 cluster map (identical on
	// every founding daemon); -join asks a running cluster's membership
	// shard to admit this node; with neither the node founds a
	// single-node cluster of its own.
	var initialMap *types.ClusterMap
	var joinAddrs []string
	switch {
	case *bootstrap != "" && *join != "":
		log.Fatal("hoplited: -bootstrap and -join are mutually exclusive")
	case *bootstrap != "":
		var members []string
		for _, s := range strings.Split(*bootstrap, ",") {
			members = append(members, strings.TrimSpace(s))
		}
		r := *replication
		if r < 1 {
			r = 1
		}
		cm := types.ClusterMap{
			Epoch:     1,
			NumShards: len(members),
			DirRF:     r,
			ObjectRF:  *objectRepl,
		}
		for _, m := range members {
			cm.Members = append(cm.Members, types.Member{
				Addr:      types.NodeID(m),
				State:     types.MemberActive,
				ShardHost: true,
			})
		}
		initialMap = &cm
	case *join != "":
		for _, s := range strings.Split(*join, ",") {
			joinAddrs = append(joinAddrs, strings.TrimSpace(s))
		}
	}

	fab := &netem.TCP{ListenAddr: *listen}
	ln, err := fab.Listen("")
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	if initialMap != nil && *locality != "" {
		// The founding map is derived from the -bootstrap address list,
		// which carries no locality labels; stamp this daemon's own entry.
		// (-join members propagate their label through the membership
		// shard instead.)
		self := ln.Addr().String()
		for i := range initialMap.Members {
			if a := string(initialMap.Members[i].Addr); a == self || a == *listen {
				initialMap.Members[i].Locality = *locality
			}
		}
	}
	node, err := hoplite.NewNode(hoplite.Config{
		Fabric:            fab,
		Listener:          ln,
		InitialMap:        initialMap,
		JoinAddrs:         joinAddrs,
		JoinStorageOnly:   *storageOnly,
		RepairInterval:    *repairEvery,
		StoreCapacity:     *capacity,
		MemoryLimit:       *memLimit,
		SpillDir:          *spillDir,
		SpillHighWater:    *spillHigh,
		SpillLowWater:     *spillLow,
		InlineThreshold:   *inline,
		MaxBatchDelay:     *batchDelay,
		MaxBatchBytes:     *batchBytes,
		LocationCacheSize: *locCache,
		SchedClasses:      *schedClasses,
		BulkCutoff:        *bulkCutoff,
		LinkHalfLife:      *linkHalfLife,
		Locality:          *locality,
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
	var _ net.Listener = ln
}
