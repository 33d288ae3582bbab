package main

import (
	"time"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/flow"
	"github.com/hpcsim/t2hx/internal/sim"
)

// stepTracer times every executed event from outside the simulator and
// splits the time by whether the flow network re-solved rates during the
// event (flow.Network.Recomputes advanced) or not (event dispatch: fabric,
// MPI progression, telemetry callbacks). Times are monotonic wall clock
// per event, since a per-event CPU-clock read would be a system call;
// traceRun converts them to shares of the round.
type stepTracer struct {
	base                   time.Time
	solve, dispatch        time.Duration
	solveSteps, otherSteps uint64
	activeSum              float64
	open                   bool
	start                  time.Duration
	net                    *flow.Network
	recomputesAtStart      uint64
}

func newStepTracer() *stepTracer { return &stepTracer{base: time.Now()} }

// now is a monotonic timestamp; time.Since reads one clock where
// time.Now reads two.
func (t *stepTracer) now() time.Duration { return time.Since(t.base) }

// record attributes one event's duration.
func (t *stepTracer) record(d time.Duration, net *flow.Network, r0 uint64) {
	if net.Recomputes != r0 {
		t.solve += d
		t.solveSteps++
		t.activeSum += float64(net.Active())
	} else {
		t.dispatch += d
		t.otherSteps++
	}
}

// drive runs the engine to drain, timing each Step — the harness owns the
// loop.
func (t *stepTracer) drive(eng *sim.Engine, net *flow.Network) {
	for {
		r0 := net.Recomputes
		t0 := t.now()
		if !eng.Step() {
			return
		}
		t.record(t.now()-t0, net, r0)
	}
}

// probe installs an Engine.OnStep hook for loops a library owns
// (workloads.MpiGraph, mpi.Run): each call closes the previous event's
// interval and opens the next one. Any probe already installed (the
// telemetry collector's) still runs.
func (t *stepTracer) probe(eng *sim.Engine, net *flow.Network) {
	prev := eng.OnStep
	eng.OnStep = func(at sim.Time, pending int) {
		now := t.now()
		t.close(now)
		t.open, t.start, t.net, t.recomputesAtStart = true, now, net, net.Recomputes
		if prev != nil {
			prev(at, pending)
		}
	}
}

// close ends the open interval, if any, at now.
func (t *stepTracer) close(now time.Duration) {
	if t.open {
		t.record(now-t.start, t.net, t.recomputesAtStart)
		t.open = false
	}
}

// observe hooks a fabric the round is about to drive through a library
// loop (trace mode only).
func (rc *runCtx) observe(f *fabric.Fabric) {
	if rc.tr != nil {
		rc.tr.probe(f.Eng, f.Net)
	}
}

// settled closes the last traced event after a library loop returned.
func (rc *runCtx) settled() {
	if rc.tr != nil {
		rc.tr.close(rc.tr.now())
	}
}

// traceCycles is how many times traceRun repeats its comparison rounds.
// Each cycle runs them back to back, so a drift in the host's speed
// shifts every side of a comparison alike.
const traceCycles = 3

// traceRun produces the per-layer split. A first untraced round warms the
// fresh process up (its heap grows from empty, so it runs slower than
// every later round) and is not compared. Then each cycle runs an untraced
// round (the base for the trace overhead, GC and allocation figures), a
// traced round, and for instrumented workloads a round with telemetry
// detached (the base for the telemetry tax). Figures are per round,
// averaged over the cycles.
func traceRun(w workload, m *meter, rep *report, add func(*runCtx, *outcome)) error {
	run := func(rc *runCtx) error {
		o, err := w.run(rc)
		if err == nil {
			add(rc, o)
		}
		return err
	}
	if err := run(&runCtx{}); err != nil {
		return err
	}
	l, ok := w.(*lattice)
	instrumented := ok && l.shape.telemetry

	tr := newStepTracer()
	var baseCPU, buildCPU, finishCPU, tracedCPU, detachedCPU, gcCPU float64
	var tracedWall time.Duration
	var alloc uint64
	for c := 0; c < traceCycles; c++ {
		base := &runCtx{}
		alloc0, gc0 := runtimeSample()
		if err := run(base); err != nil {
			return err
		}
		alloc1, gc1 := runtimeSample()
		alloc += alloc1 - alloc0
		gcCPU += gc1 - gc0
		baseCPU += base.cpu
		buildCPU += base.buildCPU
		finishCPU += base.finishCPU

		traced := &runCtx{tr: tr}
		if err := run(traced); err != nil {
			return err
		}
		tracedCPU += traced.cpu
		tracedWall += traced.wall

		if instrumented {
			detached := &runCtx{telemetryOff: true}
			if err := run(detached); err != nil {
				return err
			}
			detachedCPU += detached.cpu
		}
	}

	var taxPct float64
	if instrumented {
		taxPct = 100 * (baseCPU - detachedCPU) / detachedCPU
	}
	const mib = 1 << 20
	const n = traceCycles
	// Per-event times are wall clock, which on a VM includes steal; report
	// each split as its share of the traced rounds' wall time, applied to
	// their CPU seconds.
	solveShare := tr.solve.Seconds() / tracedWall.Seconds()
	solveCPU := solveShare * tracedCPU / n
	dispatchCPU := tr.dispatch.Seconds() / tracedWall.Seconds() * tracedCPU / n
	rep.Layers = map[string]float64{
		"topo.build_s":          m.topoCPU,
		"route.build_s":         m.routeCPU,
		"route.alloc_mib":       float64(m.routeAlloc) / mib,
		"exp.cache_hits":        float64(rep.CacheHits),
		"exp.cache_misses":      float64(rep.CacheMisses),
		"workloads.build_s":     buildCPU / n,
		"mpi.ops":               rep.Counts["mpi_ops"],
		"sim.events":            float64(tr.solveSteps+tr.otherSteps) / n,
		"sim.dispatch_s":        dispatchCPU,
		"sim.ns_per_event":      ratio(dispatchCPU*1e9*n, float64(tr.otherSteps)),
		"flow.solves":           rep.Counts["solves"],
		"flow.solve_s":          solveCPU,
		"flow.us_per_solve":     ratio(solveCPU*1e6*n, float64(tr.solveSteps)),
		"flow.active_per_solve": ratio(tr.activeSum, float64(tr.solveSteps)),
		"flow.solve_share_pct":  100 * solveShare,
		"fabric.retries":        rep.Counts["retries"],
		"fabric.giveups":        rep.Counts["giveups"],
		"telemetry.tax_pct":     taxPct,
		"telemetry.detached_s":  detachedCPU / n,
		"telemetry.finish_s":    finishCPU / n,
		"go.gc_cpu_s":           gcCPU / n,
		"go.run_alloc_mib":      float64(alloc) / mib / n,
		"trace.overhead_pct":    100 * (tracedCPU - baseCPU) / baseCPU,
		"trace.base_s":          baseCPU / n,
		"trace.traced_s":        tracedCPU / n,
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
