package flow

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file pins the incremental solver's output bit for bit on a
// tie-heavy, every-endpoint-busy run. Equal link capacities and uniform
// random traffic make dozens of channels share a bottleneck level, so any
// change to how epsilon-tied bottlenecks are picked, or to the order in
// which flows freeze, shows up here as a changed float64 bit pattern. A
// second, disjoint shape pins settles that re-solve many components at
// once, with near-tied shares across components.
// Regenerate with `go test ./internal/flow -run TestLoadedGolden -update`
// only for a change that is meant to alter the solver's arithmetic.

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens")

// dorPath is the dimension-order minimal route from terminal a to terminal
// b on a HyperX: inject, one hop per differing dimension in dimension
// order, deliver.
func dorPath(hx *topo.HyperX, a, b topo.NodeID) []topo.ChannelID {
	g := hx.Graph
	p := []topo.ChannelID{g.Nodes[a].Ports[0].Channel(a)}
	cur := g.SwitchOf(a)
	dst := g.SwitchOf(b)
	coord := append([]int(nil), hx.Coord(cur)...)
	for d, want := range hx.Coord(dst) {
		if coord[d] == want {
			continue
		}
		coord[d] = want
		next := hx.SwitchAt(coord...)
		for _, l := range g.UpLinks(cur) {
			if l.Other(cur) == next {
				p = append(p, l.Channel(cur))
				break
			}
		}
		cur = next
	}
	return append(p, g.Nodes[b].Ports[0].Channel(cur))
}

// hostPath threads dorPath through both endpoints' aggregate-bandwidth
// channels (node0 is the first, indexed by terminal order), the way the
// fabric layer shares a node's HCA budget between its sends and receives.
func hostPath(hx *topo.HyperX, node0 topo.ChannelID, ai, bi int) []topo.ChannelID {
	terms := hx.Graph.Terminals()
	p := []topo.ChannelID{node0 + topo.ChannelID(ai)}
	p = append(p, dorPath(hx, terms[ai], terms[bi])...)
	return append(p, node0+topo.ChannelID(bi))
}

// Shape of the loaded golden run: a 4x4 HyperX with 4 terminals per switch,
// every link of equal capacity, every terminal keeping one 64 KiB flow in
// flight to a seeded random destination, two flows per terminal, counters
// attached. Node channels run at the fabric's default 1.5x the link
// bandwidth (fabric.DefaultNodeBandwidth); each carries its terminal's
// send and its receives, so the largest epsilon-tie class spans 27
// channels on seed 1, against 11 with node channels at link bandwidth.
const (
	goldenMsgs   = 2
	goldenSize   = 64 << 10
	goldenBW     = 4e9
	goldenNodeBW = 1.5 * goldenBW
)

// bitsOf renders a float64 as its exact bit pattern, so golden lines match
// only when the values are identical, not merely close.
func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// runLoadedGolden replays one seed of the loaded shape; see runGolden for
// what is pinned.
func runLoadedGolden(seed uint64) (string, int) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 4, Bandwidth: goldenBW, Latency: 0})
	terms := hx.Graph.Terminals()
	r := sim.NewRand(seed)
	dst := make([]int, len(terms)*goldenMsgs)
	for i := range terms {
		for m := 0; m < goldenMsgs; m++ {
			d := r.Intn(len(terms) - 1)
			if d >= i {
				d++ // never to itself
			}
			dst[i*goldenMsgs+m] = d
		}
	}
	nodeCaps := make([]float64, len(terms))
	for i := range nodeCaps {
		nodeCaps[i] = goldenNodeBW
	}
	return runGolden(seed, hx, nodeCaps, dst)
}

// runDisjointGolden replays the multi-component shape: a 4x4 HyperX with 2
// terminals per switch, where switch (x, y) exchanges traffic only with
// its neighbour (x^1, y), so the 8 switch pairs never share a channel and
// settles re-solve several components. Two flows cross each inter-switch
// channel and a node channel at 1.5x carries up to three, so link, deliver
// and node channels all sit at a fair share near half the link bandwidth;
// every capacity is then jittered by a few multiples of shareEps, which
// puts shares of different components just inside and just outside each
// other's tie windows. Solving the components as one region would move a
// component's tie window to another component's level and freeze a
// different bottleneck.
func runDisjointGolden(seed uint64) (string, int) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: goldenBW, Latency: 0})
	g := hx.Graph
	r := sim.NewRand(seed)
	jitter := []float64{0, 0.4e-9, 0.8e-9, 1.5e-9, 3e-9}
	near := func(v float64) float64 { return v * (1 + jitter[r.Intn(len(jitter))]) }
	for _, l := range g.Links {
		l.Bandwidth = near(goldenBW)
	}
	terms := g.Terminals()
	nodeCaps := make([]float64, len(terms))
	for i := range nodeCaps {
		nodeCaps[i] = near(goldenNodeBW)
	}
	dst := make([]int, len(terms)*goldenMsgs)
	for i, a := range terms {
		coord := append([]int(nil), hx.Coord(g.SwitchOf(a))...)
		coord[0] ^= 1
		peers := g.TerminalsOf(hx.SwitchAt(coord...))
		for m := 0; m < goldenMsgs; m++ {
			dst[i*goldenMsgs+m] = g.TerminalIndex(peers[r.Intn(len(peers))])
		}
	}
	return runGolden(seed, hx, nodeCaps, dst)
}

// runGolden runs every terminal's chain of goldenMsgs flows of goldenSize
// bytes along host paths to dst (terminal index per (terminal, message)),
// with one node channel per terminal at nodeCaps, counters attached, and
// renders every pinned value as text: completion times per (terminal,
// message), the rate and bottleneck channel of every active flow at three
// mid-run instants, per-channel XmitData/XmitWait, the HCA wait, and the
// recompute count. It also reports the most components one settle
// re-solved among the settles just before the snapshot instants.
func runGolden(seed uint64, hx *topo.HyperX, nodeCaps []float64, dst []int) (string, int) {
	g := hx.Graph
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	net.SetSolver(SolverIncremental)
	node0 := topo.ChannelID(len(net.caps))
	for _, c := range nodeCaps {
		net.AddNodeChannels(1, c)
	}
	cc := telemetry.NewChannelCounters(g)
	net.SetCounters(cc)
	maxComps := 0
	eng.OnStep = func(sim.Time, int) { maxComps = max(maxComps, len(net.comps)) }
	ids := make([]FlowID, len(dst))
	doneAt := make([]sim.Time, len(dst))
	var start func(i, m int)
	start = func(i, m int) {
		k := i*goldenMsgs + m
		ids[k] = net.Start(hostPath(hx, node0, i, dst[k]), goldenSize, func(at sim.Time) {
			doneAt[k] = at
			if m+1 < goldenMsgs {
				start(i, m+1)
			}
		})
	}
	for i := range nodeCaps {
		start(i, 0)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", seed)
	unit := sim.Time(goldenSize / goldenBW)
	for _, at := range []sim.Time{unit / 2, 3 * unit / 2, 5 * unit / 2} {
		eng.RunUntil(at)
		for k, id := range ids {
			idx, ok := net.lookup(id)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "rate %s %d %s %d\n", bitsOf(float64(at)), k,
				bitsOf(net.tab.rate[idx]), net.tab.bott[idx])
		}
	}
	eng.Run()
	for k, at := range doneAt {
		fmt.Fprintf(&b, "done %d %s\n", k, bitsOf(float64(at)))
	}
	cc.Flush()
	for c := range cc.XmitData {
		fmt.Fprintf(&b, "chan %d %s %s\n", c, bitsOf(cc.XmitData[c]), bitsOf(float64(cc.XmitWait[c])))
	}
	fmt.Fprintf(&b, "hcawait %s\nrecomputes %d\n", bitsOf(float64(cc.HCAWait)), net.Recomputes)
	return b.String(), max(maxComps, len(net.comps))
}

// goldenCases are the pinned runs: the loaded shape, which re-solves
// essentially one spanning component per settle, on three seeds, and the
// disjoint shape, whose settles re-solve several components at once.
var goldenCases = []struct {
	file      string
	seed      uint64
	run       func(seed uint64) (string, int)
	wantComps int // least number of components some settle must re-solve
}{
	{"loaded_golden_seed1.txt", 1, runLoadedGolden, 1},
	{"loaded_golden_seed2.txt", 2, runLoadedGolden, 1},
	{"loaded_golden_seed3.txt", 3, runLoadedGolden, 1},
	{"disjoint_golden_seed16.txt", 16, runDisjointGolden, 2},
}

// TestLoadedGolden holds the incremental solver to its recorded output on
// the golden shapes, exactly: every pinned value is compared as float64
// bits. Runs under either build tag, since it selects the solver itself.
func TestLoadedGolden(t *testing.T) {
	for _, gc := range goldenCases {
		got, comps := gc.run(gc.seed)
		if comps < gc.wantComps {
			t.Fatalf("%s: at most %d components per settle, want some settle with >= %d",
				gc.file, comps, gc.wantComps)
		}
		path := filepath.Join("testdata", gc.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(want, []byte(got)) {
			continue
		}
		wl := strings.Split(string(want), "\n")
		gl := strings.Split(got, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Fatalf("%s line %d differs:\n want %q\n  got %q", path, i+1, w, g)
			}
		}
	}
}
