package flow

import (
	"math"

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
//     and each is solved on its own, in ascending root order: fair shares
//     of different components never enter one tie window (DESIGN.md §12).
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

// component is one connected component of the current dirty region: a
// span of regionChans and a span of regionFlows (segmented storage — no
// per-component allocation). root is the smallest channel ID in the
// component, the key components are solved and merged in.
type component struct {
	root    topo.ChannelID
	chanOff int32
	chanLen int32
	flowOff int32
	flowLen int32
}

// solverScratch is the progressive-filling scratch reused across
// component solves: the bottleneck share heap, the pool of epsilon-tied
// bottleneck candidates and the freeze set.
type solverScratch struct {
	shareHeap shareHeap
	tiePool   []shareEntry
	freeze    []int32
	// live counts the component's channels that still carry unfrozen
	// flows, the bound on live heap entries that gates compaction.
	live int
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
// region is discovered segmented into connected components, and each
// component in ascending root order has its flows integrated to now,
// is progressively filled on its own, and has its completion predictions
// pushed in discovery order.
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
	t := &n.tab
	for ci := range comps {
		comp := &comps[ci]
		flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
		// Integrate the component's flows to now under their outgoing
		// rates before re-rating them: the region is exactly the set of
		// flows whose rates may change, so this closes their current
		// piecewise-constant interval (and credits it to the attached
		// counters) while everyone outside the region keeps integrating
		// lazily.
		for _, idx := range flows {
			n.advanceFlow(idx, now)
		}
		n.solveComponent(comp)
		for _, idx := range flows {
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

// discoverComponents runs the dirty-region BFS once per unswept dirty
// seed, segmenting regionChans/regionFlows into connected components. The
// returned slice (backed by n.comps) is sorted by root, fixing the solve
// and merge order; flowless components (membership drained to empty) are
// dropped.
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
	// Canonical order: ascending root. Insertion sort — settles touch a
	// handful of components and sort.Slice would allocate.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].root < comps[j-1].root; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	n.comps = comps
	return comps
}

// solveComponent progressively fills one component. It reads and writes
// only the component's own per-channel solver arrays and per-flow SoA
// entries, so the tie window it sees is the component's own (DESIGN.md
// §12).
func (n *Network) solveComponent(comp *component) {
	t := &n.tab
	sc := &n.scratch
	chans := n.regionChans[comp.chanOff : comp.chanOff+comp.chanLen]
	flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
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
		remaining -= n.freezeChannel(bott.c, bott.share)
		if len(*h) > 2*sc.live+64 {
			h.dropStale(n.chanGen)
		}
	}
	sc.tiePool = pool[:0]
}

// freezeChannel freezes every unfrozen flow crossing bott at share (in
// start order, for deterministic float arithmetic), updates residuals
// and re-queues the touched channels on the share heap. Returns the
// number frozen.
func (n *Network) freezeChannel(bott topo.ChannelID, share float64) int {
	t := &n.tab
	sc := &n.scratch
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
