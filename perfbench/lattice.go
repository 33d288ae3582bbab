package main

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// latticeShape is a windowed closed loop over a 12x8 HyperX with hxmin
// routing, driven directly through fabric.Send and Engine.Run/Step.
type latticeShape struct {
	t        int   // terminals per switch
	window   int   // messages in flight; 0 = every terminal busy
	msgBytes int64 // payload per message
	budget   uint64
	// strides > 0 cycles sources through a bounded set of seeded offsets
	// (exp.RunScale's generator); 0 draws every destination uniformly.
	strides   int
	telemetry bool
}

// loadedShape is the paper's 672-node HyperX with every endpoint busy:
// each terminal keeps one 64 KiB message in flight to a uniformly random
// destination, so every settle re-solves one spanning component. The
// lattice is intact: minimal hxmin routing strands some pairs once the
// paper's 15 cables are missing (the paper workload carries them).
var loadedShape = latticeShape{
	t: 7, msgBytes: 64 << 10, budget: 1344,
}

// scaleShape is the repository's 32k-terminal endurance shape with the
// full observability stack attached.
var scaleShape = latticeShape{
	t: 342, window: 256, msgBytes: 16 << 10, budget: 60_000, strides: 64, telemetry: true,
}

type lattice struct {
	shape latticeShape
	seed  uint64

	g      *topo.Graph
	tables *route.Tables
	terms  []topo.NodeID
	// offsets are the destination offsets from each message's source, in
	// [1, n-1]: the generated input, fixed before setup starts.
	offsets []int32

	// next is the fabric round 0 sends on, built as part of setup.
	next *latticeFabric
}

// latticeFabric is one round's transport and its observers.
type latticeFabric struct {
	f    *fabric.Fabric
	col  *telemetry.Collector
	sink *telemetry.CountSink
}

// newLattice generates the traffic inputs; setup builds the system.
func newLattice(s latticeShape, seed uint64) *lattice {
	l := &lattice{shape: s, seed: seed}
	n := 12 * 8 * s.t
	rng := sim.NewRand(seed64(seed))
	if s.strides > 0 {
		// Message i goes from i%n to (i%n + offsets[i%len]) % n, which
		// bounds the fabric's path cache. Offset k is drawn from the k-th
		// of len equal slices of [1, n-1] (exp.RunScale takes each slice's
		// first offset), so every seed mixes near and far destinations
		// alike; fully random offsets made the run's cost vary by 40%
		// between seeds.
		step := (n - 1) / s.strides
		l.offsets = make([]int32, s.strides)
		for k := range l.offsets {
			l.offsets[k] = int32(1 + k*step + rng.Intn(step))
		}
	} else {
		l.offsets = make([]int32, s.budget)
		for i := range l.offsets {
			l.offsets[i] = int32(1 + rng.Intn(n-1))
		}
	}
	return l
}

func (l *lattice) setup(m *meter) error {
	s := l.shape
	t0 := cpuSeconds()
	hx, err := topo.BuildHyperX(topo.HyperXConfig{
		S: []int{12, 8}, T: s.t,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	if err != nil {
		return err
	}
	t1 := cpuSeconds()
	a0, _ := runtimeSample()
	l.tables, err = route.HXMin(hx, 0)
	if err != nil {
		return err
	}
	a1, _ := runtimeSample()
	m.topoCPU, m.routeCPU, m.routeAlloc = t1-t0, cpuSeconds()-t1, a1-a0
	l.g = hx.Graph
	l.terms = hx.Graph.Terminals()
	l.next = l.newFabric(true)
	return nil
}

func (l *lattice) newFabric(observed bool) *latticeFabric {
	lf := &latticeFabric{f: fabric.New(sim.NewEngine(), l.tables, fabric.DefaultParams(), l.seed)}
	if l.shape.telemetry && observed {
		lf.col = telemetry.New(l.g, telemetry.Options{Counters: true, Messages: true})
		lf.sink = telemetry.NewCountSink()
		lf.col.SetSink(lf.sink)
		lf.f.AttachTelemetry(lf.col)
	}
	return lf
}

func (l *lattice) run(rc *runCtx) (*outcome, error) {
	s := l.shape
	lf := l.next
	if lf == nil || rc.telemetryOff {
		lf = l.newFabric(!rc.telemetryOff)
	}
	l.next = nil
	f, eng := lf.f, lf.f.Eng
	n := len(l.terms)
	window := s.window
	if window == 0 || window > n {
		window = n
	}

	var sent, done uint64
	var send func(src int)
	// Every delivery immediately launches the next message of the budget:
	// from the same source when every terminal is busy (per-source closed
	// loop), else from the generator's next source.
	send = func(src int) {
		if sent >= s.budget {
			return
		}
		i := sent
		sent++
		var dst int
		if s.strides > 0 {
			src = int(i % uint64(n))
			dst = (src + int(l.offsets[int(i)%len(l.offsets)])) % n
		} else {
			dst = (src + int(l.offsets[i])) % n
		}
		f.Send(l.terms[src], l.terms[dst], s.msgBytes, func(sim.Time) {
			done++
			if done == s.budget/2 && rc.sampleHeap && rc.tr == nil {
				eng.Halt() // resumed after the mid-run heap sample
			}
			send(src)
		})
	}

	rc.begin()
	for src := 0; src < window; src++ {
		send(src)
	}
	if rc.tr != nil {
		rc.tr.drive(eng, f.Net)
	} else {
		eng.Run()
		if eng.Pending() > 0 {
			rc.end()
			rc.heapSample()
			rc.begin()
			eng.Run()
		}
	}
	var streamErr error
	if lf.col != nil {
		t := cpuSeconds()
		streamErr = lf.col.FinishStream()
		rc.finishCPU += cpuSeconds() - t
	}
	rc.end()
	rc.heapSample()

	o := &outcome{
		delivered: f.Delivered, attempted: f.Messages,
		failed:  f.Messages - f.Delivered + f.GiveUps,
		outputs: map[string]float64{"makespan_s": float64(eng.Now())},
		counts: map[string]float64{
			"events": float64(eng.Processed), "solves": float64(f.Net.Recomputes),
			"retries": float64(f.Retries), "giveups": float64(f.GiveUps),
		},
	}
	if f.Delivered != s.budget || f.Messages != s.budget {
		o.errorf("delivered %d of %d submitted, budget %d", f.Delivered, f.Messages, s.budget)
	}
	if f.GiveUps != 0 {
		o.errorf("%d messages gave up", f.GiveUps)
	}
	if lf.col != nil {
		if streamErr != nil {
			o.errorf("telemetry stream: %v", streamErr)
		}
		if got := lf.sink.Count("msg"); got != f.Delivered {
			o.errorf("telemetry streamed %d msg lines for %d deliveries", got, f.Delivered)
		}
		want := float64(f.Delivered) * float64(s.msgBytes)
		if total := lf.col.Chans.TotalXmitData(); total < want {
			o.errorf("counters moved %.0f fabric bytes < %.0f delivered payload bytes", total, want)
		}
	}
	if sent != s.budget {
		return o, fmt.Errorf("sent %d of %d messages", sent, s.budget)
	}
	return o, nil
}

// seed64 spreads a small CLI seed over the generator's state space.
func seed64(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019 }
