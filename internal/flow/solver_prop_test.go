package flow

import (
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file property-tests SolverIncremental against SolverReference: on
// randomized fabric/workload instances the two must agree on every flow's
// completion time, the mid-run rate of every active flow, the per-channel
// XmitData integrals, the total XmitWait, and the makespan — and each run
// must independently satisfy the bytes x hops conservation identity, even
// when flows are cancelled mid-flight.

// propOp is one scheduled action of a generated workload: a flow start or
// a cancel of a previously started flow.
type propOp struct {
	at     sim.Time
	cancel bool
	idx    int
	size   float64
	path   []topo.ChannelID
}

// propInstance is a reproducible topology + workload pair. nodeChans
// per-node aggregate channels of capacity nodeBW are added after the
// graph's own channels, for paths that thread them.
type propInstance struct {
	g         *topo.Graph
	ops       []propOp
	nflows    int
	nodeChans int
	nodeBW    float64
}

// randomWalkPath builds a loop-free multi-hop path from terminal a through
// the switch lattice to a random destination terminal: inject channel, 0-3
// switch-to-switch hops, deliver channel.
func randomWalkPath(r *sim.Rand, hx *topo.HyperX, a topo.NodeID) []topo.ChannelID {
	g := hx.Graph
	p := []topo.ChannelID{g.Nodes[a].Ports[0].Channel(a)}
	cur := hx.SwitchOf(a)
	visited := map[topo.NodeID]bool{cur: true}
	hops := r.Intn(4)
	for h := 0; h < hops; h++ {
		var next []*topo.Link
		for _, l := range g.UpLinks(cur) {
			o := l.Other(cur)
			if g.Nodes[o].Kind == topo.Switch && !visited[o] {
				next = append(next, l)
			}
		}
		if len(next) == 0 {
			break
		}
		l := next[r.Intn(len(next))]
		p = append(p, l.Channel(cur))
		cur = l.Other(cur)
		visited[cur] = true
	}
	dsts := g.TerminalsOf(cur)
	b := dsts[r.Intn(len(dsts))]
	return append(p, g.Nodes[b].Ports[0].Channel(cur))
}

// genInstance derives a random small HyperX and a workload of 5-40 flows
// with staggered starts, mixed sizes (including zero-size header flows),
// and ~25% mid-flight cancels from one seed.
func genInstance(seed uint64) propInstance {
	r := sim.NewRand(seed)
	shapes := [][]int{{2, 2}, {3, 3}, {2, 4}, {4, 2}}
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: shapes[r.Intn(len(shapes))], T: 1 + r.Intn(3), Bandwidth: 1e6, Latency: 0,
	})
	terms := hx.Graph.Terminals()
	inst := propInstance{g: hx.Graph, nflows: 5 + r.Intn(36)}
	for k := 0; k < inst.nflows; k++ {
		start := sim.Time(r.Float64() * 0.5)
		op := propOp{at: start, idx: k}
		if r.Float64() < 0.08 {
			// Zero-size header flow; path irrelevant.
			inst.ops = append(inst.ops, op)
			continue
		}
		op.size = math.Pow(10, 2+4*r.Float64())
		op.path = randomWalkPath(r, hx, terms[r.Intn(len(terms))])
		inst.ops = append(inst.ops, op)
		if r.Float64() < 0.25 {
			inst.ops = append(inst.ops, propOp{
				at: start + sim.Time(r.Float64()*0.5), cancel: true, idx: k,
			})
		}
	}
	return inst
}

// genLoadedInstance derives the tie-heavy family: every terminal of a
// small HyperX with equal link capacities and node channels starts one
// flow at the same instant, along its dimension-order host path to a
// random destination. Every node channel carries a send and its receives,
// so the epsilon tie classes span dozens of channels rather than the
// handful genInstance produces. Half the instances use one size for every
// flow; ~10% of flows are cancelled mid-flight. The start instant and the
// equal size are deliberately not round: with round ones, completions land
// exactly on the 0.3 s rate snapshot, where a last-ulp difference between
// the two solvers' finish times (well inside the tolerances) changes which
// flows are still active.
func genLoadedInstance(seed uint64) propInstance {
	const loadedStart = 0.0137
	r := sim.NewRand(seed)
	shapes := [][]int{{3, 3}, {4, 4}, {3, 3, 2}, {4, 3}}
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: shapes[r.Intn(len(shapes))], T: 3 + r.Intn(3), Bandwidth: 1e6, Latency: 0,
	})
	terms := hx.Graph.Terminals()
	// Node channels at 1.5x the link bandwidth, the fabric's default ratio.
	inst := propInstance{g: hx.Graph, nflows: len(terms), nodeChans: len(terms), nodeBW: 1.5e6}
	node0 := topo.ChannelID(2 * len(hx.Graph.Links))
	equal := r.Float64() < 0.5
	for k := range terms {
		d := r.Intn(len(terms) - 1)
		if d >= k {
			d++ // never to itself
		}
		size := 1.9e5
		if !equal {
			size = math.Pow(10, 4.5+r.Float64())
		}
		inst.ops = append(inst.ops, propOp{at: loadedStart, idx: k, size: size, path: hostPath(hx, node0, k, d)})
		if r.Float64() < 0.1 {
			inst.ops = append(inst.ops, propOp{
				at: loadedStart + sim.Time(r.Float64()*0.5), cancel: true, idx: k,
			})
		}
	}
	return inst
}

// propFamilies are the instance generators the solver properties run
// over, with how many seeds of each.
var propFamilies = []struct {
	name      string
	gen       func(seed uint64) propInstance
	instances uint64
}{
	{"random", genInstance, 120},
	{"loaded", genLoadedInstance, 40},
}

// propResult captures everything one run of an instance must agree on.
type propResult struct {
	doneAt     map[int]sim.Time
	ratesAt    map[int]float64 // active-flow rates at the snapshot instant
	xmit       []float64
	waitTotal  sim.Duration
	makespan   sim.Time
	movedHops  float64 // independently measured bytes x hops
	creditedBH float64 // sum of counter XmitData over all channels
}

// runPropInstance replays inst's ops on a fresh engine/network under the
// given solver and shard worker count (workers <= 1 keeps the sequential
// path; only SolverIncremental shards). Cancels and starts are scheduled
// in generation order, so the engine's (time, seq) FIFO makes the
// interleaving identical across solvers. movedHops is measured from flow
// state at each cancel/completion boundary, independently of the counters
// it is later checked against.
func runPropInstance(t *testing.T, inst propInstance, s Solver, workers int) propResult {
	t.Helper()
	eng := sim.NewEngine()
	net := NewNetwork(eng, inst.g)
	net.SetSolver(s)
	net.AddNodeChannels(inst.nodeChans, inst.nodeBW)
	if workers > 1 {
		net.SetWorkers(workers)
	}
	cc := telemetry.NewChannelCounters(inst.g)
	net.SetCounters(cc)

	res := propResult{doneAt: map[int]sim.Time{}, ratesAt: map[int]float64{}}
	// fabricHops counts the cable channels of a path: node channels model
	// host DMA and carry no counters.
	fabricHops := func(path []topo.ChannelID) float64 {
		h := 0
		for _, c := range path {
			if int(c) < 2*len(inst.g.Links) {
				h++
			}
		}
		return float64(h)
	}
	ids := make([]FlowID, inst.nflows)
	sizes := make([]float64, inst.nflows)
	for _, op := range inst.ops {
		op := op
		if op.cancel {
			eng.Schedule(op.at, func(*sim.Engine) {
				if idx, ok := net.lookup(ids[op.idx]); ok && net.tab.zeroEv[idx] == 0 {
					// Integrate up to now, then measure the partial bytes
					// this cancel strands: they must stay credited.
					net.advanceAll()
					res.movedHops += (sizes[op.idx] - net.tab.remaining[idx]) *
						fabricHops(net.tab.path(idx))
				}
				net.Cancel(ids[op.idx])
			})
			continue
		}
		sizes[op.idx] = op.size
		eng.Schedule(op.at, func(*sim.Engine) {
			ids[op.idx] = net.Start(op.path, op.size, func(at sim.Time) {
				res.doneAt[op.idx] = at
				res.movedHops += op.size * fabricHops(op.path)
				if at > res.makespan {
					res.makespan = at
				}
			})
		})
	}

	// Mid-run rate snapshot: the max-min allocation itself, not just its
	// integral, must match across solvers.
	eng.RunUntil(0.3)
	idxOf := map[FlowID]int{}
	for k, id := range ids {
		idxOf[id] = k
	}
	for i := range net.tab.live {
		if !net.tab.live[i] || net.tab.zeroEv[i] != 0 {
			continue
		}
		id := handleOf(int32(i), net.tab.gen[i])
		res.ratesAt[idxOf[id]] = net.tab.rate[i]
	}
	eng.Run()

	if net.Active() != 0 {
		t.Fatalf("solver %d: %d flows still active after drain", s, net.Active())
	}
	res.xmit = cc.XmitData
	res.creditedBH = cc.TotalXmitData()
	for _, d := range cc.XmitWait {
		res.waitTotal += d
	}
	res.waitTotal += cc.HCAWait
	return res
}

func relClose(a, b, relEps, absEps float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= absEps || d <= relEps*m
}

// TestSolverEquivalenceProperty is the acceptance property for the
// incremental solver: on every generated instance it must be
// indistinguishable from the reference solver, and the sharded variant
// must be bit-identical to the sequential one.
func TestSolverEquivalenceProperty(t *testing.T) {
	defer func(old int) { shardMinFlows = old }(shardMinFlows)
	shardMinFlows = 0 // force parallel dispatch on these tiny instances
	for _, fam := range propFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for seed := uint64(0); seed < fam.instances; seed++ {
				requireEquivalent(t, seed, fam.gen(seed))
			}
		})
	}
}

// requireEquivalent runs one instance under both solvers and sequential
// and sharded and checks that all of them agree.
func requireEquivalent(t *testing.T, seed uint64, inst propInstance) {
	t.Helper()
	inc := runPropInstance(t, inst, SolverIncremental, 1)
	ref := runPropInstance(t, inst, SolverReference, 1)
	// The sharded solver is held to a stricter bar than the reference
	// oracle: not epsilon-close but bit-identical to the sequential
	// incremental solve.
	shard := runPropInstance(t, inst, SolverIncremental, 4)
	requireBitIdentical(t, seed, "workers=4", inc, shard)

	// Identical completion sets and times.
	if len(inc.doneAt) != len(ref.doneAt) {
		t.Fatalf("seed %d: %d completions (incremental) vs %d (reference)",
			seed, len(inc.doneAt), len(ref.doneAt))
	}
	for k, at := range ref.doneAt {
		got, ok := inc.doneAt[k]
		if !ok {
			t.Fatalf("seed %d: flow %d completed only under reference", seed, k)
		}
		if !relClose(float64(got), float64(at), 1e-9, 1e-12) {
			t.Errorf("seed %d: flow %d done at %v (incremental) vs %v (reference)",
				seed, k, got, at)
		}
	}
	if !relClose(float64(inc.makespan), float64(ref.makespan), 1e-9, 1e-12) {
		t.Errorf("seed %d: makespan %v vs %v", seed, inc.makespan, ref.makespan)
	}

	// Identical mid-run allocations.
	if len(inc.ratesAt) != len(ref.ratesAt) {
		t.Fatalf("seed %d: %d active flows at snapshot vs %d",
			seed, len(inc.ratesAt), len(ref.ratesAt))
	}
	for k, rr := range ref.ratesAt {
		if !relClose(inc.ratesAt[k], rr, 1e-9, 1e-9) {
			t.Errorf("seed %d: flow %d rate %v (incremental) vs %v (reference)",
				seed, k, inc.ratesAt[k], rr)
		}
	}

	// Identical counter integrals.
	for c := range ref.xmit {
		if !relClose(inc.xmit[c], ref.xmit[c], 1e-6, 1e-6) {
			t.Errorf("seed %d: channel %d XmitData %v vs %v",
				seed, c, inc.xmit[c], ref.xmit[c])
		}
	}
	if !relClose(float64(inc.waitTotal), float64(ref.waitTotal), 1e-6, 1e-9) {
		t.Errorf("seed %d: total XmitWait %v vs %v", seed, inc.waitTotal, ref.waitTotal)
	}

	// Each run independently conserves bytes x hops — completed flows
	// credit their full size, cancelled flows exactly their partial.
	for name, r := range map[string]propResult{"incremental": inc, "reference": ref} {
		if !relClose(r.creditedBH, r.movedHops, 1e-9, 1e-6) {
			t.Errorf("seed %d (%s): counters credit %v bytes x hops, flows moved %v",
				seed, name, r.creditedBH, r.movedHops)
		}
	}
}
