package flow

import (
	"math"
	"runtime"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file shards the incremental solver by connected component of the
// flow/channel contention graph (DESIGN.md §12). The dirty-region BFS in
// recomputeIncremental already discovers exactly the flows that need
// re-rating; here the discovery is run per dirty seed, so the region comes
// back segmented into its connected components. Components share no
// channels, so the max-min allocation decomposes exactly per component —
// each one can be progressively filled independently, with its own
// private heap/scratch, on its own worker.
//
// Determinism (bit-identical at any worker count) rests on three facts:
//
//  1. Per-component arithmetic is schedule-independent. A component's
//     solve reads only its own channels' residual/unfrozenCnt/chanGen/
//     pushedGen entries and its own flows' SoA columns, all disjoint from
//     every other component's, plus immutable shared state (caps, paths,
//     membership). The progressive-filling order within a component is
//     fixed by (share, channel ID) with the epsilon tie-break and flows
//     freeze in start (seq) order — none of which depends on which worker
//     runs the component or when.
//  2. Mutable cross-component state is only touched sequentially. The
//     doneHeap pushes, rate-invariant checks and doneGen bumps happen in
//     the merge phase, after the pool has joined, iterating components in
//     ascending root order and each component's flows in discovery order —
//     the same total order the unsharded solve would produce.
//  3. Telemetry writes from workers are per-channel and therefore
//     disjoint (ChannelCounters.NoteActive touches only the channel's own
//     slot); the time-integration writes (AddXmit/AddWait and the shared
//     HCAWait accumulator) happen in recomputeIncremental's sequential
//     region-advance pass on the event goroutine before dispatch.
//
// When the workload couples every flow (e.g. uniform all-to-all traffic
// where node channels chain the whole network together), discovery finds
// one spanning component and sharding degenerates gracefully: one worker
// solves it exactly as the sequential path would, and the pool is not
// even invoked. Multi-plane fabrics are the opposite extreme — N planes
// share no channels by construction, so every settle that touches k
// planes yields ≥ k components.

// component is one connected component of the current dirty region: a
// span of regionChans and a span of regionFlows (segmented storage — no
// per-component allocation). root is the smallest channel ID in the
// component, the canonical key components are merged by.
type component struct {
	root    topo.ChannelID
	chanOff int32
	chanLen int32
	flowOff int32
	flowLen int32
}

// solverScratch is one worker's private progressive-filling scratch: the
// bottleneck share heap, the pool of epsilon-tied bottleneck candidates
// and the freeze set. Sequential solves use scratches[0]; SetWorkers
// sizes the slice.
type solverScratch struct {
	shareHeap shareHeap
	tiePool   []shareEntry
	freeze    []int32
	// live counts the component's channels that still carry unfrozen
	// flows, the bound on live heap entries that gates compaction.
	live int
}

// shardMinFlows gates parallel dispatch: a dirty region with fewer total
// flows than this is solved inline on the event goroutine, because the
// fork-join overhead would exceed the solve. A var, not a const, so tests
// can force the parallel path on tiny property-suite instances.
var shardMinFlows = 256

// SetWorkers bounds the per-component parallelism of the incremental
// solver's re-solve; j <= 0 selects GOMAXPROCS. The default is 1 (fully
// sequential). Results are bit-identical at every setting — sharding
// changes where component solves run, never what they compute — so the
// knob may be flipped at any event boundary, including mid-run.
func (n *Network) SetWorkers(j int) {
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	n.workers = j
	if j > 1 && (n.pool == nil || n.pool.Workers() != j) {
		n.pool = sim.NewPool(j)
	}
	for len(n.scratches) < j {
		n.scratches = append(n.scratches, solverScratch{})
	}
}

// Workers reports the solver's parallelism bound.
func (n *Network) Workers() int { return n.workers }

// discoverComponents runs the dirty-region BFS once per unswept dirty
// seed, segmenting regionChans/regionFlows into connected components. The
// returned slice (backed by n.comps) is sorted by root, fixing the merge
// order; flowless components (membership drained to empty) are dropped.
func (n *Network) discoverComponents() []component {
	t := &n.tab
	n.epoch++
	ep := n.epoch
	regionChans := n.regionChans[:0]
	regionFlows := n.regionFlows[:0]
	comps := n.comps[:0]
	for _, seed := range n.dirtyChans {
		if n.regionStamp[seed] == ep {
			continue // already swept into an earlier seed's component
		}
		n.regionStamp[seed] = ep
		chanOff := len(regionChans)
		flowOff := len(regionFlows)
		regionChans = append(regionChans, seed)
		root := seed
		for head := chanOff; head < len(regionChans); head++ {
			c := regionChans[head]
			if c < root {
				root = c
			}
			for _, sl := range n.chanFlows[c] {
				if t.mark[sl.idx] == ep {
					continue
				}
				t.mark[sl.idx] = ep
				regionFlows = append(regionFlows, sl.idx)
				for _, c2 := range t.path(sl.idx) {
					if n.regionStamp[c2] != ep {
						n.regionStamp[c2] = ep
						regionChans = append(regionChans, c2)
					}
				}
			}
		}
		if len(regionFlows) == flowOff {
			// Every flow left this seed's channels: nothing to re-rate.
			regionChans = regionChans[:chanOff]
			continue
		}
		comps = append(comps, component{
			root:    root,
			chanOff: int32(chanOff),
			chanLen: int32(len(regionChans) - chanOff),
			flowOff: int32(flowOff),
			flowLen: int32(len(regionFlows) - flowOff),
		})
	}
	n.consumeDirty()
	n.regionChans = regionChans
	n.regionFlows = regionFlows
	// Canonical merge order: ascending root. Insertion sort — settles
	// touch a handful of components and sort.Slice would allocate.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].root < comps[j-1].root; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	n.comps = comps
	return comps
}

// solveComponents re-rates every component, in parallel when the region
// is big enough to amortize the fork-join and has more than one
// component. Dispatch is dynamic (workers pull components from a shared
// counter) but harmless to determinism: per-component work is
// schedule-independent and the merge runs afterwards in root order.
func (n *Network) solveComponents(comps []component, now sim.Time) {
	nw := n.workers
	if nw > len(comps) {
		nw = len(comps)
	}
	if nw <= 1 || len(n.regionFlows) < shardMinFlows {
		for ci := range comps {
			n.solveComponent(&comps[ci], &n.scratches[0], now)
		}
		return
	}
	n.pool.Run(len(comps), func(worker, job int) {
		n.solveComponent(&comps[job], &n.scratches[worker], now)
	})
}

// solveComponent progressively fills one component using the worker's
// private scratch. It writes only the component's own per-channel solver
// arrays and per-flow SoA entries, so concurrent calls on distinct
// components never race.
func (n *Network) solveComponent(comp *component, sc *solverScratch, now sim.Time) {
	t := &n.tab
	chans := n.regionChans[comp.chanOff : comp.chanOff+comp.chanLen]
	flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
	// The component's flows were already integrated to now by
	// recomputeIncremental, sequentially, before dispatch — workers must
	// never write the shared counter sums.
	h := &sc.shareHeap
	*h = (*h)[:0]
	for _, c := range chans {
		cnt := int32(len(n.chanFlows[c]))
		n.residual[c] = n.caps[c]
		n.unfrozenCnt[c] = cnt
		n.chanGen[c]++
		if cnt > 0 {
			if n.cc != nil {
				n.cc.NoteActive(c, int(cnt))
			}
			n.pushedGen[c] = n.chanGen[c]
			*h = append(*h, shareEntry{share: n.caps[c] / float64(cnt), c: c, gen: n.chanGen[c]})
		}
	}
	h.init()
	for _, idx := range flows {
		t.rate[idx] = -1 // unfrozen
	}
	// Bottleneck selection. The level is the minimum live share; every
	// live share sharesEqual to it forms the tie window, and the window's
	// smallest channel ID freezes, so last-ulp share differences cannot
	// flip the choice. Uniform traffic over equal capacities puts hundreds
	// of channels in one window, so the window lives in a pool instead of
	// being popped and re-pushed at every step: an entry enters the pool
	// once and leaves when its channel freezes or changes (chanGen moves)
	// or when a lower level pushes it out of the window. Stale heap
	// entries are popped as they surface, and dropped in one pass once
	// the heap holds more than twice as many entries as there are live
	// channels, plus 64 (the maybeCompactDoneHeap pattern).
	pool := sc.tiePool[:0]
	sc.live = len(*h)
	remaining := len(flows)
	for remaining > 0 {
		level := math.Inf(1)
		live := pool[:0]
		for _, e := range pool {
			if e.gen == n.chanGen[e.c] {
				live = append(live, e)
				if e.share < level {
					level = e.share
				}
			}
		}
		pool = live
		for len(*h) > 0 && (*h)[0].gen != n.chanGen[(*h)[0].c] {
			h.pop()
		}
		if len(*h) > 0 && (*h)[0].share < level {
			level = (*h)[0].share
			// A level below the pool's can leave pool entries outside
			// the window: return them to the heap.
			in := pool[:0]
			for _, e := range pool {
				if sharesEqual(e.share, level) {
					in = append(in, e)
				} else {
					h.push(e)
				}
			}
			pool = in
		}
		for len(*h) > 0 {
			top := (*h)[0]
			if top.gen != n.chanGen[top.c] {
				h.pop()
				continue
			}
			if !sharesEqual(top.share, level) {
				break
			}
			pool = append(pool, h.pop())
		}
		if len(pool) == 0 {
			panic("flow: unfrozen flows but no bottleneck channel")
		}
		best := 0
		for i := range pool {
			if pool[i].c < pool[best].c {
				best = i
			}
		}
		bott := pool[best]
		last := len(pool) - 1
		pool[best] = pool[last]
		pool = pool[:last]
		remaining -= n.freezeChannel(sc, bott.c, bott.share)
		if len(*h) > 2*sc.live+64 {
			h.dropStale(n.chanGen)
		}
	}
	sc.tiePool = pool[:0]
}

// freezeChannel freezes every unfrozen flow crossing bott at share (in
// start order, for deterministic float arithmetic), updates residuals
// and re-queues the touched channels on the worker's heap. Returns the
// number frozen.
func (n *Network) freezeChannel(sc *solverScratch, bott topo.ChannelID, share float64) int {
	t := &n.tab
	fs := sc.freeze[:0]
	for _, sl := range n.chanFlows[bott] {
		if t.rate[sl.idx] < 0 {
			fs = append(fs, sl.idx)
		}
	}
	// Insertion sort by seq: bottleneck freeze sets are usually small, and
	// membership order is insertion order, already mostly sorted.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && t.seq[fs[j]] < t.seq[fs[j-1]]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
	for _, idx := range fs {
		t.rate[idx] = share
		t.bott[idx] = bott
		for _, c := range t.path(idx) {
			n.residual[c] -= share
			if n.residual[c] < 0 {
				n.residual[c] = 0
			}
			n.unfrozenCnt[c]--
			if n.unfrozenCnt[c] == 0 {
				sc.live--
			}
			n.chanGen[c]++
		}
	}
	// Re-queue each touched channel once, at its updated share.
	for _, idx := range fs {
		for _, c := range t.path(idx) {
			if n.unfrozenCnt[c] > 0 && n.pushedGen[c] != n.chanGen[c] {
				n.pushedGen[c] = n.chanGen[c]
				sc.shareHeap.push(shareEntry{
					share: n.residual[c] / float64(n.unfrozenCnt[c]),
					c:     c,
					gen:   n.chanGen[c],
				})
			}
		}
	}
	sc.freeze = fs[:0]
	return len(fs)
}
