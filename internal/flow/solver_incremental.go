package flow

import (
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file is the incremental max-min solver. Three ideas replace the
// reference solver's per-settle full re-solve:
//
//  1. Persistent membership: chanFlows (channel -> flow slots, with O(1)
//     swap-remove via the pos arena) is maintained on Start/Cancel/
//     completion instead of being rebuilt from every active flow on every
//     settle.
//  2. Dirty-region re-solve: a settle re-rates only the connected region
//     of the flow/channel contention graph reachable from channels whose
//     membership changed. Distinct components share no channels, so the
//     global max-min allocation decomposes per component; re-solving the
//     touched components from scratch while keeping every other flow's
//     rate is exactly the global solution. When the dirty region spans
//     the whole network this degenerates into a full (heap-driven) solve.
//     The region is discovered segmented into its connected components,
//     which can be re-solved in parallel (solver_shard.go, DESIGN.md §12).
//  3. Heaps for both bottleneck selection (shareHeap over channel fair
//     shares) and completion scheduling (doneHeap over predicted finish
//     times), replacing the linear scans. Both invalidate lazily: an entry
//     is stale once its channel's chanGen (or its flow's tab.doneGen) has
//     moved, is skipped when it surfaces, and both heaps drop their stale
//     entries in one O(heap) pass once these outnumber the live ones
//     (shareHeap.dropStale, maybeCompactDoneHeap). Bottleneck selection
//     also keeps a tie pool beside the heap (solveComponent): the live
//     entries epsilon-equal to the current level, taken out of the heap
//     once rather than popped and re-pushed at every step, so a level
//     shared by hundreds of channels costs one pop per entry, not one per
//     entry per step. Both heaps are hand-rolled over value slices:
//     container/heap's interface Push/Pop boxes every entry, and at
//     100k-flow churn those boxes were most of the solver's allocation
//     bill.
//
// Determinism: each step freezes the smallest channel ID among the live
// shares epsilon-equal to the minimum, a function of the live shares alone
// (not of heap layout or pool order), and flows on a bottleneck freeze in
// start (seq) order, so the float arithmetic — and therefore rates,
// XmitWait attribution and event timing — is reproducible.

// chanSlot is one entry of a channel's flow membership list; hop is the
// flow's path index for this channel, so a swap-remove can repair the
// moved flow's back-pointer in O(1). Pointer-free by design: membership
// lists are the largest live structure at scale and the GC never scans
// them.
type chanSlot struct {
	idx int32 // flow table slot
	hop int32 // index into the flow's path for this channel
}

// shareEntry is a (fair share, channel) candidate in the bottleneck heap;
// stale entries are recognized by gen != chanGen[c].
type shareEntry struct {
	share float64
	c     topo.ChannelID
	gen   uint32
}

// shareHeap is a hand-rolled min-heap of shareEntry values ordered by
// (share, channel ID).
type shareHeap []shareEntry

func (h shareHeap) less(i, j int) bool {
	if h[i].share != h[j].share {
		return h[i].share < h[j].share
	}
	return h[i].c < h[j].c
}

func (h *shareHeap) push(e shareEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *shareHeap) pop() shareEntry {
	s := *h
	e := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	s.down(0)
	return e
}

func (h shareHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h shareHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// dropStale removes every entry whose channel has moved on since it was
// pushed, in one pass, and restores the heap order.
func (h *shareHeap) dropStale(chanGen []uint32) {
	live := (*h)[:0]
	for _, e := range *h {
		if e.gen == chanGen[e.c] {
			live = append(live, e)
		}
	}
	*h = live
	h.init()
}

// doneEntry is a predicted flow completion; stale entries are recognized
// by gen != tab.doneGen[idx] (freeSlot bumps doneGen, so entries for a
// slot's previous occupant can never fire against its current one). seq
// is the flow's start order, the deterministic tie-break for equal times.
type doneEntry struct {
	at  sim.Time
	seq uint64
	gen uint64
	idx int32
}

// doneHeap is a hand-rolled min-heap of doneEntry values ordered by
// (time, start order).
type doneHeap []doneEntry

func (h doneHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *doneHeap) push(e doneEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *doneHeap) pop() doneEntry {
	s := *h
	e := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	s.down(0)
	return e
}

func (h doneHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h doneHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// ensureChanArrays grows the per-channel solver arrays to cover every
// capacity slot (AddNodeChannels appends after construction). Shared by
// both solvers: the incremental membership lists and the reference
// solver's dense scratch are parallel to caps.
func (n *Network) ensureChanArrays() {
	if len(n.chanFlows) >= len(n.caps) {
		return
	}
	grow := len(n.caps)
	for len(n.chanFlows) < grow {
		n.chanFlows = append(n.chanFlows, nil)
	}
	for len(n.refPerChan) < grow {
		n.refPerChan = append(n.refPerChan, nil)
	}
	n.dirtyStamp = append(n.dirtyStamp, make([]uint64, grow-len(n.dirtyStamp))...)
	n.regionStamp = append(n.regionStamp, make([]uint64, grow-len(n.regionStamp))...)
	n.residual = append(n.residual, make([]float64, grow-len(n.residual))...)
	n.unfrozenCnt = append(n.unfrozenCnt, make([]int32, grow-len(n.unfrozenCnt))...)
	n.chanGen = append(n.chanGen, make([]uint32, grow-len(n.chanGen))...)
	n.pushedGen = append(n.pushedGen, make([]uint32, grow-len(n.pushedGen))...)
	n.refStamp = append(n.refStamp, make([]uint64, grow-len(n.refStamp))...)
	n.refResidual = append(n.refResidual, make([]float64, grow-len(n.refResidual))...)
	n.refUnfrozen = append(n.refUnfrozen, make([]int32, grow-len(n.refUnfrozen))...)
}

// dirtyChan records a membership change on c for the next recompute.
func (n *Network) dirtyChan(c topo.ChannelID) {
	if n.dirtyStamp[c] == n.dirtyEpoch {
		return
	}
	n.dirtyStamp[c] = n.dirtyEpoch
	n.dirtyChans = append(n.dirtyChans, c)
}

// addMembership inserts the flow slot into the membership list of every
// channel it crosses, dirtying them.
func (n *Network) addMembership(idx int32) {
	t := &n.tab
	pos := t.pos(idx)
	for i, c := range t.path(idx) {
		pos[i] = int32(len(n.chanFlows[c]))
		n.chanFlows[c] = append(n.chanFlows[c], chanSlot{idx: idx, hop: int32(i)})
		n.dirtyChan(c)
	}
}

// removeMembership swap-removes the flow slot from its channels'
// membership lists, dirtying them.
func (n *Network) removeMembership(idx int32) {
	t := &n.tab
	pos := t.pos(idx)
	for i, c := range t.path(idx) {
		s := n.chanFlows[c]
		p := pos[i]
		last := int32(len(s) - 1)
		if p != last {
			moved := s[last]
			s[p] = moved
			t.posArena[t.pathOff[moved.idx]+moved.hop] = p
		}
		n.chanFlows[c] = s[:last]
		n.dirtyChan(c)
	}
}

// consumeDirty resets the dirty set for the next interval.
func (n *Network) consumeDirty() {
	n.dirtyChans = n.dirtyChans[:0]
	n.dirtyEpoch++
}

// recomputeIncremental re-solves the region of the contention graph
// touched by the dirty channels; flows outside it keep their rates. The
// region is discovered segmented into connected components
// (solver_shard.go), each component is progressively filled independently
// — in parallel when SetWorkers allows and the region is big enough — and
// the completion predictions are merged sequentially in (component root,
// start order) order, keeping the result bit-identical to the fully
// sequential solve at any worker count.
func (n *Network) recomputeIncremental() {
	n.Recomputes++
	if len(n.dirtyChans) == 0 {
		return
	}
	if n.Active() == 0 {
		n.consumeDirty()
		return
	}
	now := n.eng.Now()
	comps := n.discoverComponents()
	if len(comps) == 0 {
		return
	}
	// Integrate every region flow to now under its outgoing rate before
	// any re-rating: the region is exactly the set of flows whose rates
	// may change, so this closes their current piecewise-constant interval
	// (and credits it to the attached counters) while everyone outside the
	// region keeps integrating lazily. Done here, sequentially in
	// component-discovery order, so shard workers never write the shared
	// counter sums.
	t := &n.tab
	for ci := range comps {
		comp := &comps[ci]
		for _, idx := range n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen] {
			n.advanceFlow(idx, now)
		}
	}
	n.solveComponents(comps, now)
	// Merge: predict completions for every re-rated flow, sequentially in
	// ascending component-root order (the canonical order fixed by
	// discoverComponents), flows in discovery order within a component —
	// the same total order the unsharded solve produced.
	for ci := range comps {
		comp := &comps[ci]
		for _, idx := range n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen] {
			n.checkRate(idx)
			t.doneGen[idx]++
			n.doneHeap.push(doneEntry{
				at:  now + sim.Time(t.remaining[idx]/t.rate[idx]),
				seq: t.seq[idx],
				gen: t.doneGen[idx],
				idx: idx,
			})
		}
	}
	n.maybeCompactDoneHeap()
}

// scheduleNextDoneHeap points the completion event at the earliest live
// prediction.
func (n *Network) scheduleNextDoneHeap() {
	h := &n.doneHeap
	for len(*h) > 0 && (*h)[0].gen != n.tab.doneGen[(*h)[0].idx] {
		h.pop()
	}
	if len(*h) == 0 {
		n.cancelDoneEv()
		return
	}
	n.scheduleDoneAt((*h)[0].at)
}

// completeDueHeap finishes every flow whose live prediction has come due.
// A popped flow whose remaining bytes have not in fact drained (float
// drift between the prediction and the integration) is re-queued at a
// corrected, strictly-future time, guaranteeing progress.
func (n *Network) completeDueHeap() {
	now := n.eng.Now()
	t := &n.tab
	done := n.doneScratch[:0]
	h := &n.doneHeap
	for len(*h) > 0 {
		top := (*h)[0]
		if top.gen != t.doneGen[top.idx] {
			h.pop()
			continue
		}
		if top.at > now {
			break
		}
		h.pop()
		idx := top.idx
		n.advanceFlow(idx, now)
		if n.drained(idx) {
			done = append(done, idx)
			continue
		}
		t.doneGen[idx]++
		at := now + sim.Time(t.remaining[idx]/t.rate[idx])
		if at <= now {
			done = append(done, idx) // residue below time resolution
			continue
		}
		h.push(doneEntry{at: at, seq: t.seq[idx], gen: t.doneGen[idx], idx: idx})
	}
	n.doneScratch = done[:0]
	if len(done) == 0 {
		n.scheduleNextDoneHeap()
		return
	}
	n.finishFlows(done)
}

// maybeCompactDoneHeap drops accumulated stale entries once they dominate
// the heap, bounding memory under churn-heavy workloads.
func (n *Network) maybeCompactDoneHeap() {
	h := n.doneHeap
	if len(h) <= 4*n.Active()+64 {
		return
	}
	live := h[:0]
	for _, e := range h {
		if e.gen == n.tab.doneGen[e.idx] {
			live = append(live, e)
		}
	}
	n.doneHeap = live
	n.doneHeap.init()
}
