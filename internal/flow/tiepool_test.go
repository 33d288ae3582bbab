package flow

import (
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file holds solveComponent's bottleneck pick to the selection rule
// spelled out as a scan: at every step the level is the minimum fair share
// over every channel still carrying unfrozen flows, and the smallest
// channel ID whose share is sharesEqual to the level freezes. The tie pool
// and the heap compaction must pick exactly that channel at every step,
// so the comparison is bit for bit, not within a tolerance.

// scanSolveComponent progressively fills comp by full scans instead of
// the heap and tie pool. Shares are computed as residual/unfrozenCnt, the
// same expression a live heap entry carries, and flows freeze through the
// same freezeChannel, so the arithmetic matches solveComponent's exactly
// whenever the picks do.
func (n *Network) scanSolveComponent(comp *component) {
	chans := n.regionChans[comp.chanOff : comp.chanOff+comp.chanLen]
	flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
	for _, c := range chans {
		n.residual[c] = n.caps[c]
		n.unfrozenCnt[c] = int32(len(n.chanFlows[c]))
	}
	for _, idx := range flows {
		n.tab.rate[idx] = -1
	}
	share := func(c topo.ChannelID) float64 { return n.residual[c] / float64(n.unfrozenCnt[c]) }
	for remaining := len(flows); remaining > 0; {
		level := math.Inf(1)
		for _, c := range chans {
			if n.unfrozenCnt[c] > 0 && share(c) < level {
				level = share(c)
			}
		}
		best := topo.ChannelID(-1)
		for _, c := range chans {
			if n.unfrozenCnt[c] > 0 && sharesEqual(share(c), level) && (best < 0 || c < best) {
				best = c
			}
		}
		remaining -= n.freezeChannel(best, share(best))
		n.scratch.shareHeap = n.scratch.shareHeap[:0] // freezeChannel's re-queues are unused here
	}
}

// nearTieNetwork loads a small HyperX whose link and node-channel
// capacities differ from a common value by a few multiples of shareEps,
// so fair shares cluster just inside and just outside each other's
// epsilon windows, and every terminal starts 1-2 flows along host paths.
func nearTieNetwork(seed uint64) *Network {
	r := sim.NewRand(seed)
	jitter := []float64{0, 0, 0.4e-9, 0.8e-9, 1.5e-9, 3e-9}
	capacity := func() float64 { return 1e6 * (1 + jitter[r.Intn(len(jitter))]) }
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 3}, T: 3 + r.Intn(3), Bandwidth: 1e6})
	for _, l := range hx.Graph.Links {
		l.Bandwidth = capacity()
	}
	terms := hx.Graph.Terminals()
	net := NewNetwork(sim.NewEngine(), hx.Graph)
	net.SetSolver(SolverIncremental)
	node0 := topo.ChannelID(len(net.caps))
	for range terms {
		net.AddNodeChannels(1, 1.5*capacity())
	}
	for i := range terms {
		for m := 1 + r.Intn(2); m > 0; m-- {
			d := r.Intn(len(terms) - 1)
			if d >= i {
				d++
			}
			net.Start(hostPath(hx, node0, i, d), 1e5, func(sim.Time) {})
		}
	}
	return net
}

// TestTiePoolMatchesScan solves each near-tie instance's components twice,
// through solveComponent and through the scan, and requires identical
// rates and bottleneck channels for every flow.
func TestTiePoolMatchesScan(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		n := nearTieNetwork(seed)
		comps := n.discoverComponents()
		for ci := range comps {
			comp := &comps[ci]
			flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
			n.solveComponent(comp)
			rate := make([]float64, len(flows))
			bott := make([]topo.ChannelID, len(flows))
			for i, idx := range flows {
				rate[i], bott[i] = n.tab.rate[idx], n.tab.bott[idx]
			}
			n.scanSolveComponent(comp)
			for i, idx := range flows {
				if n.tab.rate[idx] != rate[i] || n.tab.bott[idx] != bott[i] {
					t.Fatalf("seed %d: flow slot %d: tie pool froze it at %v on channel %d, scan at %v on %d",
						seed, idx, rate[i], bott[i], n.tab.rate[idx], n.tab.bott[idx])
				}
			}
		}
	}
}
