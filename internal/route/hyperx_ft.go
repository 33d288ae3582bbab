package route

import (
	"errors"
	"fmt"

	"github.com/hpcsim/t2hx/internal/topo"
)

// Fault-tolerant HyperX routing engines, after the restricted non-minimal
// schemes of Camarero, Martínez and Beivide (arXiv:2404.04315). Both are
// destination-based LFT engines that survive link loss by construction:
//
//   - HXMin ("hxmin") keeps dimension-order minimal routing and, when the
//     direct in-line link of the lowest uncorrected dimension is down,
//     escapes over a two-hop in-line detour whose intermediate coordinate
//     is strictly below BOTH endpoint coordinates. The restriction makes
//     the in-line channel dependencies strictly coordinate-decreasing, so
//     a single virtual lane stays deadlock-free (see the argument at
//     hxminEscape); the price is that pairs whose only detours run through
//     higher coordinates become unreachable and are reported explicitly.
//
//   - HXNonMin ("hxnm") drops the dimension-order restriction: every
//     destination gets a BFS distance field over the live fabric and each
//     switch forwards to a strictly-closer neighbor, preferring in-order
//     minimal hops, then restricted escapes, then arbitrary misroutes.
//     Any pair the fabric connects stays routable; deadlock freedom comes
//     from DFSSSP-style virtual-lane layering of the resulting paths.
//
// Both engines degrade gracefully: pairs they cannot serve are left
// unprogrammed (Tables.Path returns ErrNoRoute, Validate counts them as
// unreachable) instead of failing the build.

// HXMin builds minimal-with-restricted-escape tables for a HyperX. The
// result uses one virtual lane; the in-engine lane pass re-verifies the
// deadlock argument and errors instead of returning an unsafe table.
func HXMin(hx *topo.HyperX, lmc uint8) (*Tables, error) {
	t := newTables(hx.Graph, "hxmin", lmc, nil)
	g := hx.Graph
	x := newHXLattice(hx)
	cw := NewChannelWeights(g)
	span := 1 << lmc
	switches := g.Switches()
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue // detached destination: its LIDs stay unreachable
		}
		dsi := g.SwitchIndex(dstSw)
		dc := x.coord[dsi]
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			installHyperXDelivery(t, lid, dstSw, dst)
			for si, s := range switches {
				if si == dsi {
					continue
				}
				sc := x.coord[si]
				d := lowestDiffDim(sc, dc)
				vi := x.lineNeighbor(si, d, dc[d])
				if c := bestLiveChannel(cw, x.row(si), vi); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					continue
				}
				if c, c2 := hxminEscape(x, cw, si, vi, sc[d], dc[d], d); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					cw.Add(c2, 1)
				}
				// No direct link and no restricted escape: leave the entry
				// unprogrammed. Validate reports the pair unreachable.
			}
		}
	}
	if _, err := assignLanesTolerant(t, 1); err != nil {
		return nil, fmt.Errorf("route: hxmin deadlock restriction violated: %w", err)
	}
	t.Freeze()
	return t, nil
}

// hxminEscape picks the two-hop in-line detour s -> m -> v with the
// low-coordinate restriction coord(m) < min(coord(s), coord(v)); s, v and
// m are switch indexes.
//
// Deadlock argument: within one line, every dependency this rule creates
// between channels (x->y) and (y->z) has coord(y) < coord(x). A dependency
// cycle inside the line would therefore have strictly decreasing tail
// coordinates all the way around — impossible. Across dimensions, HXMin
// corrects coordinates in strictly increasing dimension order, so
// cross-dimension dependencies only point from lower to higher dimensions.
// Both together make the whole CDG acyclic on a single virtual lane.
//
// It returns the first hop's channel and the second hop's channel (for
// weight accounting), or NoChannel when no restricted intermediate has both
// links live.
func hxminEscape(x *hxLattice, cw *ChannelWeights, s, v, sCoord, dCoord, d int) (topo.ChannelID, topo.ChannelID) {
	low := sCoord
	if dCoord < low {
		low = dCoord
	}
	for m := low - 1; m >= 0; m-- {
		mi := x.lineNeighbor(s, d, m)
		c1 := bestLiveChannel(cw, x.row(s), mi)
		if c1 == NoChannel {
			continue
		}
		c2 := bestLiveChannel(cw, x.row(mi), v)
		if c2 == NoChannel {
			continue
		}
		return c1, c2
	}
	return NoChannel, NoChannel
}

// HXNonMin builds non-minimal fault-tolerant tables for a HyperX: every
// switch forwards toward a destination along a strictly distance-decreasing
// live neighbor (BFS metric on the degraded fabric), ranked to prefer
// in-dimension-order minimal hops, then restricted escapes, then arbitrary
// detours. Paths are spread over at most maxVL virtual lanes with acyclic
// per-lane CDGs; exceeding the budget is an error (the SM keeps the old
// tables rather than accept a deadlock-prone sweep).
func HXNonMin(hx *topo.HyperX, lmc uint8, maxVL int) (*Tables, error) {
	t := newTables(hx.Graph, "hxnm", lmc, nil)
	g := hx.Graph
	x := newHXLattice(hx)
	cw := NewChannelWeights(g)
	span := 1 << lmc
	switches := g.Switches()
	dist := make([]int32, len(switches))
	queue := make([]int, 0, len(switches))
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
		}
		dsi := g.SwitchIndex(dstSw)
		dc := x.coord[dsi]
		// BFS hop distances toward dstSw over live switch links.
		for i := range dist {
			dist[i] = -1
		}
		dist[dsi] = 0
		queue = append(queue[:0], dsi)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, e := range x.row(cur) {
				if dist[e.nbr] >= 0 {
					continue
				}
				dist[e.nbr] = dist[cur] + 1
				queue = append(queue, e.nbr)
			}
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			installHyperXDelivery(t, lid, dstSw, dst)
			for si, s := range switches {
				if si == dsi || dist[si] < 0 {
					continue // the destination, or a switch the fabric lost
				}
				c := hxnmNextHop(x, cw, dist, si, dc)
				if c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
				}
			}
		}
	}
	if _, err := assignLanesTolerant(t, maxVL); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// hxnmNextHop ranks switch s's live strictly-closer neighbors toward the
// destination coordinates and returns the channel of the best one. Ranks,
// best first: the minimal hop of the lowest uncorrected dimension; a
// restricted low-coordinate escape in that dimension; any other hop in that
// dimension; a minimal hop of a later dimension; anything else. Ties break
// on channel weight, then channel ID — deterministic for a given build
// order. Distance strictly decreases every hop, so the tables are loop-free
// by construction.
func hxnmNextHop(x *hxLattice, cw *ChannelWeights, dist []int32, s int, dc []int) topo.ChannelID {
	sc := x.coord[s]
	d := lowestDiffDim(sc, dc)
	best := NoChannel
	bestRank := 0
	bestWeight := 0.0
	for _, e := range x.row(s) {
		if dist[e.nbr] != dist[s]-1 {
			continue
		}
		wc := x.coord[e.nbr]
		dd := lowestDiffDim(sc, wc) // the single dimension the hop moves in
		var rank int
		switch {
		case dd == d && wc[d] == dc[d]:
			rank = 0
		case dd == d && wc[d] < sc[d] && wc[d] < dc[d]:
			rank = 1
		case dd == d:
			rank = 2
		case wc[dd] == dc[dd]:
			rank = 3
		default:
			rank = 4
		}
		c := e.ch
		weight := cw.Get(c)
		if best == NoChannel || rank < bestRank ||
			(rank == bestRank && (weight < bestWeight || (weight == bestWeight && c < best))) {
			best, bestRank, bestWeight = c, rank, weight
		}
	}
	return best
}

// installHyperXDelivery programs the destination switch's delivery hop.
func installHyperXDelivery(t *Tables, lid LID, dstSw, dst topo.NodeID) {
	g := t.G
	for _, l := range g.Nodes[dst].Ports {
		if l != nil && !l.Down && l.Other(dst) == dstSw {
			t.SetNextHop(dstSw, lid, l.Channel(dstSw))
			return
		}
	}
}

// lowestDiffDim returns the first dimension where the coordinates differ.
// The caller guarantees they are not equal.
func lowestDiffDim(a, b []int) int {
	for d := range a {
		if a[d] != b[d] {
			return d
		}
	}
	panic("route: identical coordinates")
}

// hxLattice is the per-build view the fault-tolerant HyperX engines route
// over, keyed by switch index: lattice coordinates and strides for
// allocation-free line arithmetic, and the switch-link index — each
// switch's live switch-to-switch channels, read from the links' Down flags
// once per build, so a next-hop lookup scans the switch's radix instead of
// all of its ports (terminal ports first).
type hxLattice struct {
	coord   [][]int // coord[s] is switch s's lattice position
	strides []int   // row-major strides: switch indexes are lattice indexes
	off     []int   // row s of links is links[off[s]:off[s+1]]
	links   []swLink
}

// swLink is one live switch-to-switch channel of the index.
type swLink struct {
	nbr int // switch index of the far end
	ch  topo.ChannelID
}

func newHXLattice(hx *topo.HyperX) *hxLattice {
	g := hx.Graph
	shape := hx.Cfg.S
	ns := g.NumSwitches()
	x := &hxLattice{
		coord:   make([][]int, ns),
		strides: make([]int, len(shape)),
		off:     make([]int, ns+1),
	}
	stride := 1
	for d := len(shape) - 1; d >= 0; d-- {
		x.strides[d] = stride
		stride *= shape[d]
	}
	for si, s := range g.Switches() {
		c := hx.Coord(s)
		x.coord[si] = c
		lat := 0
		for d, v := range c {
			lat += v * x.strides[d]
		}
		if lat != si {
			// BuildHyperX creates the switches in row-major order.
			panic(fmt.Sprintf("route: switch %d sits at lattice index %d", si, lat))
		}
		for _, l := range g.Nodes[s].Ports {
			if l == nil || l.Down {
				continue
			}
			if oi := g.SwitchIndex(l.Other(s)); oi >= 0 {
				x.links = append(x.links, swLink{oi, l.Channel(s)})
			}
		}
		x.off[si+1] = len(x.links)
	}
	return x
}

// lineNeighbor returns the switch matching switch s's coordinates except
// for coordinate v in dimension d.
func (x *hxLattice) lineNeighbor(s, d, v int) int {
	return s + (v-x.coord[s][d])*x.strides[d]
}

// row returns switch s's live switch-to-switch channels.
func (x *hxLattice) row(s int) []swLink { return x.links[x.off[s]:x.off[s+1]] }

// bestLiveChannel returns the lowest-(weight, ID) channel of row toward
// switch nbr, or NoChannel when no live one exists. With K parallel links
// per dimension this is what spreads destinations across the parallels.
func bestLiveChannel(cw *ChannelWeights, row []swLink, nbr int) topo.ChannelID {
	best := NoChannel
	bestWeight := 0.0
	for _, e := range row {
		if e.nbr != nbr {
			continue
		}
		w := cw.Get(e.ch)
		if best == NoChannel || w < bestWeight || (w == bestWeight && e.ch < best) {
			best, bestWeight = e.ch, w
		}
	}
	return best
}

// assignLanesTolerant is AssignVLs for engines that intentionally leave
// pairs unprogrammed: ErrNoRoute path failures are skipped and counted
// instead of failing the pass, while structural anomalies (loops, down-link
// use, misdelivery) still abort. It returns the number of skipped
// (src, dst-LID) pairs.
func assignLanesTolerant(t *Tables, maxVL int) (int, error) {
	g := t.G
	terms := g.Terminals()
	span := 1 << t.LMC
	// Every terminal on a switch shares its fabric path to a given
	// destination LID — injection and delivery channels are not CDG
	// participants — so lane assignment only needs one representative
	// source per (switch, LID) pair; the lane is then recorded for the
	// whole group. The former walk over all terminal pairs was quadratic
	// in terminals: at 32832 terminals it enumerated over a billion paths
	// for a set with |switches| x |LIDs| distinct members.
	attached := make([]bool, len(terms))
	bySwitch := make([][]topo.NodeID, g.NumSwitches())
	for i, tm := range terms {
		if sw := g.SwitchOf(tm); sw >= 0 {
			attached[i] = true
			si := g.SwitchIndex(sw)
			bySwitch[si] = append(bySwitch[si], tm)
		}
	}
	pl := newLanePlacer(g, maxVL)
	var buf []topo.ChannelID // the walked path, reused across pairs
	unreachable, n, failed := 0, 0, -1
	for _, group := range bySwitch {
		if len(group) == 0 {
			continue
		}
		src := group[0]
		for di, dst := range terms {
			if !attached[di] || dst == src {
				continue
			}
			for off := 0; off < span; off++ {
				lid := t.BaseLID[di] + LID(off)
				p, err := t.appendPath(buf[:0], src, lid)
				if err != nil {
					if errors.Is(err, ErrNoRoute) {
						// Count what the terminal-pair walk would have:
						// every source terminal of the group misses dst.
						unreachable += len(group)
						continue
					}
					return unreachable, fmt.Errorf("route: %s lane assignment: %w", t.Engine, err)
				}
				buf = p
				// Past a lane failure the walk goes on only to count the
				// paths and to report a broken path first.
				if failed < 0 {
					switch vl := pl.place(p[1 : len(p)-1]); {
					case vl < 0:
						failed = n
					case vl > 0:
						// SL defaults to 0; skipping the lane-0 write keeps
						// single-lane engines from materializing the
						// O(terminals^2) SL table.
						for _, src := range group {
							t.SetSL(src, lid, uint8(vl))
						}
					}
				}
				n++
			}
		}
	}
	if failed >= 0 {
		return unreachable, fmt.Errorf("route: %s needs more than %d virtual lanes (failed at path %d of %d)",
			t.Engine, maxVL, failed, n)
	}
	t.NumVL = pl.lanes()
	return unreachable, nil
}
