package core

import (
	"sort"
	"time"

	"hoplite/internal/linkstate"
	"hoplite/internal/types"
)

// linkPlanner folds link estimates into the three transfer-planning
// decisions a node makes: which senders a striped Get prefers (and how
// much each claims per trip), what L and B feed the reduce-tree degree
// model (Eq. 1), and which tree slot a ready source is assigned to. It
// plans against the node's measured per-link estimates, falling back to
// the configured priors where nothing has been measured, so on a cold
// cluster it keeps the equal-links plan: arrival order, equal spans, the
// priors, and the lowest free slot.
type linkPlanner struct {
	links     *linkstate.Tracker
	latency   time.Duration
	bandwidth float64
}

// maxSpanFactor caps how much longer a fast sender's claim span may grow
// than the grid chunk: unbounded spans would let one optimistic estimate
// absorb the whole ledger into a single claim, defeating work stealing.
const maxSpanFactor = 4

// slowFraction is the below-the-median cutoff for pushing a reduce
// participant to a leaf slot: only a host measured at less than half the
// median peer bandwidth deviates from arrival-order placement.
const slowFraction = 0.5

// rankSenders orders leased senders most-preferred first. The first entry
// is also what the non-striped fallback keeps.
func (p linkPlanner) rankSenders(s []types.NodeID) []types.NodeID {
	if len(s) < 2 {
		return s
	}
	out := append([]types.NodeID(nil), s...)
	sort.SliceStable(out, func(i, j int) bool {
		return p.links.Estimate(out[i]).Bandwidth > p.links.Estimate(out[j]).Bandwidth
	})
	return out
}

// stripeSpans sizes each ranked sender's per-claim span given the ledger
// grid chunk: a faster sender claims a longer run of chunks per ClaimNext
// trip, so the work-stealing split converges on a bandwidth-proportional
// byte partition with fewer claim round-trips.
func (p linkPlanner) stripeSpans(senders []types.NodeID, base int64) []int64 {
	spans := make([]int64, len(senders))
	bw := make([]float64, len(senders))
	var sum float64
	for i, s := range senders {
		bw[i] = p.links.Estimate(s).Bandwidth
		sum += bw[i]
	}
	mean := sum / float64(len(senders))
	for i := range spans {
		factor := 1.0
		if mean > 0 {
			factor = bw[i] / mean
		}
		// Never below the grid chunk (a slow sender still claims whole
		// chunks; stealing keeps it busy) and never above the cap.
		if factor < 1 {
			factor = 1
		}
		if factor > maxSpanFactor {
			factor = maxSpanFactor
		}
		spans[i] = int64(float64(base) * factor)
	}
	return spans
}

// reduceParams yields the latency and bandwidth fed to chooseDegree: the
// mean RTT and mean bandwidth across measured peers. Equation 1 models the
// cluster with scalar L and B, so the mean is the faithful reduction;
// per-slot asymmetry is handled by slot placement, not by the degree.
func (p linkPlanner) reduceParams() (time.Duration, float64) {
	var rtt, bw float64
	n := 0
	for _, r := range p.links.Snapshot() {
		if r.Measured {
			rtt += r.RTT.Seconds()
			bw += r.Bandwidth
			n++
		}
	}
	if n == 0 {
		return p.latency, p.bandwidth
	}
	return time.Duration(rtt / float64(n) * float64(time.Second)), bw / float64(n)
}

// chooseSlot picks which free tree slot the next ready source (hosted on
// host) fills; leaf reports whether a slot has no children. It keeps the
// lowest-free-slot fill except for hosts measured well below the median
// peer bandwidth, which are steered to a free leaf slot: a leaf uploads
// its subtree output once and receives nothing, so a starved link
// contributes its object without sitting on every descendant's critical
// path.
func (p linkPlanner) chooseSlot(free []int, leaf func(int) bool, host types.NodeID) int {
	est := p.links.Estimate(host)
	if !est.Measured {
		return free[0]
	}
	med, ok := p.medianMeasuredBandwidth()
	if !ok || est.Bandwidth >= med*slowFraction {
		return free[0]
	}
	for _, s := range free {
		if leaf(s) {
			return s
		}
	}
	return free[0]
}

func (p linkPlanner) medianMeasuredBandwidth() (float64, bool) {
	var bws []float64
	for _, r := range p.links.Snapshot() {
		if r.Measured {
			bws = append(bws, r.Bandwidth)
		}
	}
	if len(bws) == 0 {
		return 0, false
	}
	sort.Float64s(bws)
	return bws[len(bws)/2], true
}
