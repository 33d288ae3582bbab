package flow

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file tests the sharded incremental solver (solver_shard.go): the
// component index must segment dirty regions correctly, and the solve must
// be bit-identical — not epsilon-close — to the sequential path at every
// worker count, including under handle-reuse churn with stale cancels
// landing between a membership change and its component re-solve.

// requireBitIdentical asserts two runs of the same instance produced
// byte-for-byte identical results: exact completion times, exact mid-run
// rates, exact per-channel counter integrals. Used to hold the sharded
// solver to the determinism contract (DESIGN.md §12), which is stricter
// than the epsilon comparisons against the reference oracle.
func requireBitIdentical(t *testing.T, seed uint64, label string, a, b propResult) {
	t.Helper()
	if len(a.doneAt) != len(b.doneAt) {
		t.Fatalf("seed %d (%s): %d completions vs %d", seed, label, len(a.doneAt), len(b.doneAt))
	}
	for k, at := range a.doneAt {
		got, ok := b.doneAt[k]
		if !ok {
			t.Fatalf("seed %d (%s): flow %d completed only in one run", seed, label, k)
		}
		if got != at {
			t.Errorf("seed %d (%s): flow %d done at %v vs %v (not bit-identical)",
				seed, label, k, at, got)
		}
	}
	if a.makespan != b.makespan {
		t.Errorf("seed %d (%s): makespan %v vs %v", seed, label, a.makespan, b.makespan)
	}
	if len(a.ratesAt) != len(b.ratesAt) {
		t.Fatalf("seed %d (%s): %d active flows at snapshot vs %d",
			seed, label, len(a.ratesAt), len(b.ratesAt))
	}
	for k, r := range a.ratesAt {
		if b.ratesAt[k] != r {
			t.Errorf("seed %d (%s): flow %d rate %v vs %v (not bit-identical)",
				seed, label, k, r, b.ratesAt[k])
		}
	}
	for c := range a.xmit {
		if a.xmit[c] != b.xmit[c] {
			t.Errorf("seed %d (%s): channel %d XmitData %v vs %v (not bit-identical)",
				seed, label, c, a.xmit[c], b.xmit[c])
		}
	}
	if a.waitTotal != b.waitTotal {
		t.Errorf("seed %d (%s): total XmitWait %v vs %v (not bit-identical)",
			seed, label, a.waitTotal, b.waitTotal)
	}
	if a.creditedBH != b.creditedBH {
		t.Errorf("seed %d (%s): credited bytes x hops %v vs %v (not bit-identical)",
			seed, label, a.creditedBH, b.creditedBH)
	}
}

// TestShardDeterminism asserts byte-identical rates, completion times and
// telemetry conservation sums across worker counts 1/2/8 on randomized
// instances of every property family, mirroring exp's
// TestSweepDeterministicAcrossWorkers.
func TestShardDeterminism(t *testing.T) {
	defer func(old int) { shardMinFlows = old }(shardMinFlows)
	shardMinFlows = 0 // force parallel dispatch on these tiny instances
	const instances = 40
	for _, fam := range propFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for seed := uint64(0); seed < instances; seed++ {
				inst := fam.gen(seed)
				base := runPropInstance(t, inst, SolverIncremental, 1)
				for _, workers := range []int{2, 8} {
					got := runPropInstance(t, inst, SolverIncremental, workers)
					requireBitIdentical(t, seed, "workers="+string('0'+rune(workers)), base, got)
				}
			}
		})
	}
}

// shardTestGraph builds a small HyperX whose raw channel IDs the component
// tests address directly.
func shardTestGraph(t *testing.T) *topo.Graph {
	t.Helper()
	hx, err := topo.BuildHyperX(topo.HyperXConfig{
		S: []int{2, 2}, T: 2, Bandwidth: 1e6, Latency: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hx.Graph
}

// disjointChannels returns k channels no two of which share a link, so
// single-channel flows over them form k separate contention components.
func disjointChannels(g *topo.Graph, k int) []topo.ChannelID {
	cs := make([]topo.ChannelID, 0, k)
	for l := 0; l < len(g.Links) && len(cs) < k; l++ {
		cs = append(cs, topo.ChannelID(2*l)) // forward channel of link l
	}
	return cs
}

// TestComponentDiscovery checks the component index directly: disjoint
// flows come back as separate components sorted by root, flows chained by
// a shared channel merge into one, and the spans partition the region.
func TestComponentDiscovery(t *testing.T) {
	g := shardTestGraph(t)
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	net.SetSolver(SolverIncremental) // component index is incremental-only
	cs := disjointChannels(g, 4)
	if len(cs) < 4 {
		t.Fatalf("test graph too small: %d disjoint channels", len(cs))
	}
	noop := func(sim.Time) {}
	// Two isolated single-channel flows, plus a chained pair sharing cs[2]:
	// {cs[0]}, {cs[1]}, {cs[2]}+{cs[2],cs[3]} -> 3 components.
	net.Start([]topo.ChannelID{cs[0]}, 1e6, noop)
	net.Start([]topo.ChannelID{cs[1]}, 1e6, noop)
	net.Start([]topo.ChannelID{cs[2]}, 1e6, noop)
	net.Start([]topo.ChannelID{cs[2], cs[3]}, 1e6, noop)
	eng.RunUntil(0) // settle
	comps := net.comps
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %+v", len(comps), comps)
	}
	wantRoots := []topo.ChannelID{cs[0], cs[1], cs[2]}
	var flowTotal int32
	for i, c := range comps {
		if c.root != wantRoots[i] {
			t.Errorf("component %d root %d, want %d", i, c.root, wantRoots[i])
		}
		if i > 0 && comps[i-1].root >= c.root {
			t.Errorf("components not sorted by root: %d then %d", comps[i-1].root, c.root)
		}
		flowTotal += c.flowLen
	}
	if flowTotal != int32(len(net.regionFlows)) {
		t.Errorf("component flow spans cover %d flows, region has %d",
			flowTotal, len(net.regionFlows))
	}
	if comps[2].flowLen != 2 || comps[2].chanLen != 2 {
		t.Errorf("chained component spans flows=%d chans=%d, want 2/2",
			comps[2].flowLen, comps[2].chanLen)
	}
	// Dirty only one component: the next settle must re-discover just it.
	net.Start([]topo.ChannelID{cs[0]}, 1e6, noop)
	eng.RunUntil(0)
	if len(net.comps) != 1 || net.comps[0].root != cs[0] {
		t.Fatalf("dirtying one component rediscovered %+v", net.comps)
	}
}

// TestShardStaleCancelChurn drives handle-reuse churn under the sharded
// solver: slots recycle via the LIFO free list while stale handles are
// cancelled at the same instant as the pending component re-solve. Stale
// cancels must be counted, never tear down a slot's next occupant, and
// the sharded drain must stay exact.
func TestShardStaleCancelChurn(t *testing.T) {
	defer func(old int) { shardMinFlows = old }(shardMinFlows)
	shardMinFlows = 0
	g := shardTestGraph(t)
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	net.SetSolver(SolverIncremental)
	net.SetWorkers(8)
	cs := disjointChannels(g, 4)
	const perChan = 8
	var completions int
	onDone := func(sim.Time) { completions++ }
	ids := make([]FlowID, 0, len(cs)*perChan)
	for _, c := range cs {
		for i := 0; i < perChan; i++ {
			ids = append(ids, net.Start([]topo.ChannelID{c}, 1e9, onDone))
		}
	}
	eng.RunUntil(0)
	const churns = 64
	var wantStale uint64
	for i := 0; i < churns; i++ {
		k := i % len(ids)
		stale := ids[k]
		net.Cancel(stale) // frees the slot, marks its component dirty
		// Recycle the freed slot before the settle event fires...
		ids[k] = net.Start([]topo.ChannelID{cs[k%len(cs)]}, 1e9, onDone)
		if Index(stale) != Index(ids[k]) {
			t.Fatalf("churn %d: expected LIFO slot reuse, got slot %d then %d",
				i, Index(stale), Index(ids[k]))
		}
		// ...and cancel the stale handle at the same instant, racing the
		// pending component re-solve. It must hit StaleCancels, not the
		// slot's new occupant.
		net.Cancel(stale)
		wantStale++
		eng.RunUntil(eng.Now()) // run the settle for this churn instant
	}
	if net.StaleCancels != wantStale {
		t.Fatalf("StaleCancels = %d, want %d", net.StaleCancels, wantStale)
	}
	eng.Run()
	if net.Active() != 0 {
		t.Fatalf("%d flows still active after drain", net.Active())
	}
	if want := len(ids); completions != want {
		t.Fatalf("%d completions, want %d", completions, want)
	}
}

// TestSetWorkersScratch pins the SetWorkers contract: scratch slots cover
// the worker count, GOMAXPROCS resolution for j <= 0, and flipping the
// knob mid-run (between event boundaries) keeps the drain exact.
func TestSetWorkersScratch(t *testing.T) {
	g := shardTestGraph(t)
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	net.SetSolver(SolverIncremental)
	if net.Workers() != 1 {
		t.Fatalf("default workers = %d, want 1", net.Workers())
	}
	net.SetWorkers(4)
	if net.Workers() != 4 || len(net.scratches) < 4 {
		t.Fatalf("workers=%d scratches=%d after SetWorkers(4)", net.Workers(), len(net.scratches))
	}
	net.SetWorkers(0)
	if net.Workers() < 1 {
		t.Fatalf("SetWorkers(0) resolved to %d", net.Workers())
	}
	cs := disjointChannels(g, 2)
	done := 0
	net.Start([]topo.ChannelID{cs[0]}, 1e6, func(sim.Time) { done++ })
	eng.RunUntil(0)
	net.SetWorkers(2) // flip mid-run at an event boundary
	net.Start([]topo.ChannelID{cs[1]}, 1e6, func(sim.Time) { done++ })
	eng.Run()
	if done != 2 || net.Active() != 0 {
		t.Fatalf("done=%d active=%d after mid-run SetWorkers", done, net.Active())
	}
}
