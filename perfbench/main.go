// Command perfbench is the worker process of the repository benchmark. One
// invocation runs one workload cold, in a fresh process, and prints one
// JSON object describing what it measured; perfbench/run.py starts the
// workers, aggregates their samples and checks their outputs.
//
// Every timing is host CPU seconds of this process (user+sys from
// getrusage), not wall time: the wall clock of a small VM includes
// hypervisor steal that repeats poorly from run to run (README.md).
//
//	perfbench -workload loaded -seed 1 -mode measure -rounds 1
//	perfbench -workload paper -seed 1 -mode trace
//	perfbench -workload loaded -seed 1 -rounds 3 -cpuprofile loaded.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/hpcsim/t2hx/internal/exp"
)

// machineSeed fixes the missing-cable draw of the paper's machines (the
// cmd/figures default), so every benchmark seed measures the same
// machines and only the traffic varies.
const machineSeed = 1

// report is the worker's one-line JSON result.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Mode     string `json:"mode"`
	// SetupCPU is the CPU seconds from workload start to the first
	// message: topology, routing tables, fabric/machine construction.
	SetupCPU float64 `json:"setup_cpu_s"`
	// Rounds holds one entry per repetition of the workload's fixed
	// traffic budget; every round carries identical inputs.
	Rounds []round `json:"rounds"`
	// LiveHeap is the largest live heap after a forced GC, sampled at end
	// of setup, mid-run and end of run (outside every timed window).
	LiveHeap uint64 `json:"live_heap_bytes"`
	// CacheHits/CacheMisses snapshot exp.DefaultTableCache after setup.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Machines is how many routed machines setup built through the cache.
	Machines int `json:"machines"`
	// Attempted sums fabric.Messages over every fabric of every round;
	// Failed counts messages submitted but not delivered, or given up.
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Errors lists every failed output check; empty means correct.
	Errors []string `json:"errors"`
	// Outputs are round 0's simulated results, compared against the
	// pinned values by run.py and across rounds here.
	Outputs map[string]float64 `json:"outputs"`
	// Counts are work counts of round 0 (reported, not pinned).
	Counts map[string]float64 `json:"counts"`
	// Layers holds the per-layer metrics of a trace-mode run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// round is one timed repetition of the traffic budget.
type round struct {
	Msgs uint64  `json:"msgs"`
	CPU  float64 `json:"cpu_s"`
}

// workload is one benchmark shape. setup builds everything the first
// message needs; run sends the traffic budget once on fresh fabrics and
// returns its outputs.
type workload interface {
	setup(m *meter) error
	run(rc *runCtx) (*outcome, error)
}

// outcome is what one round produced.
type outcome struct {
	delivered, attempted, failed uint64
	outputs                      map[string]float64
	counts                       map[string]float64
	errs                         []string
}

func (o *outcome) errorf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: loaded, scale32k or paper")
	seed := flag.Uint64("seed", 1, "traffic stream (1 is the pinned default)")
	mode := flag.String("mode", "measure", "measure (untraced rounds), setup (setup only) or trace (per-layer split)")
	rounds := flag.Int("rounds", 1, "measured rounds, each the workload's full traffic budget")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured rounds to this file")
	flag.Parse()

	rep, err := execute(*name, *seed, *mode, *rounds, *cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "loaded":
		return newLattice(loadedShape, seed), nil
	case "scale32k":
		return newLattice(scaleShape, seed), nil
	case "paper":
		return newPaper(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func execute(name string, seed uint64, mode string, rounds int, cpuprofile string) (*report, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if mode != "measure" && mode != "setup" && mode != "trace" {
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	rep := &report{Workload: name, Seed: seed, Mode: mode, Errors: []string{}}
	m := &meter{trace: mode == "trace"}

	start := cpuSeconds()
	if err := w.setup(m); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.SetupCPU = cpuSeconds() - start
	cs := exp.DefaultTableCache.Stats()
	rep.CacheHits, rep.CacheMisses = cs.Hits, cs.Misses
	rep.Machines = m.machines
	// Cold-start guard: a hit would mean setup_s timed a cache lookup.
	if cs.Hits != 0 || cs.Misses != uint64(m.machines) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("table cache after setup: %d hits, %d misses, want 0 hits and %d misses",
			cs.Hits, cs.Misses, m.machines))
	}
	rep.LiveHeap = liveHeap()

	add := func(rc *runCtx, o *outcome) {
		rep.Rounds = append(rep.Rounds, round{Msgs: o.delivered, CPU: rc.cpu})
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		if rep.Outputs == nil {
			rep.Outputs, rep.Counts = o.outputs, o.counts
		} else {
			for k, v := range o.outputs {
				if rep.Outputs[k] != v {
					o.errorf("round %d output %s = %v, round 0 gave %v", len(rep.Rounds)-1, k, v, rep.Outputs[k])
				}
			}
		}
		rep.Errors = append(rep.Errors, o.errs...)
		rep.LiveHeap = max(rep.LiveHeap, rc.heap)
	}

	switch mode {
	case "setup":
		return rep, nil
	case "trace":
		return rep, traceRun(w, m, rep, add)
	}

	var prof *os.File
	if cpuprofile != "" {
		if prof, err = os.Create(cpuprofile); err != nil {
			return nil, err
		}
		defer prof.Close() // error paths; the success path checks Close
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	for i := 0; i < max(rounds, 1); i++ {
		rc := &runCtx{sampleHeap: i == 0 && cpuprofile == ""}
		o, err := w.run(rc)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		add(rc, o)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// meter accumulates setup-time per-layer measurements. Workloads fill it
// in both modes; only trace mode reports it.
type meter struct {
	// trace asks setup to also time its layers apart where that costs
	// extra work (trace mode only).
	trace             bool
	topoCPU, routeCPU float64
	routeAlloc        uint64
	machines          int
}

// runCtx carries one round's timing state. The workload brackets each
// stretch of simulation with begin/end; anything between stretches
// (fabric construction, forced-GC heap samples) stays untimed.
type runCtx struct {
	cpu float64
	t0  float64
	// wall is the same stretches on the monotonic clock; trace mode uses
	// it to turn per-event wall times into shares of the round.
	wall       time.Duration
	w0         time.Time
	heap       uint64
	sampleHeap bool
	// tr, when set, times every executed event (trace mode).
	tr *stepTracer
	// telemetryOff runs the round with observability detached, for the
	// telemetry tax comparison.
	telemetryOff bool
	// finishCPU is CPU spent in Collector.FinishStream.
	finishCPU float64
	// buildCPU is CPU spent building workload programs.
	buildCPU float64
}

func (rc *runCtx) begin() { rc.t0, rc.w0 = cpuSeconds(), time.Now() }
func (rc *runCtx) end()   { rc.cpu += cpuSeconds() - rc.t0; rc.wall += time.Since(rc.w0) }

// heapSample records the live heap between timed stretches, in rounds
// that sample it (the first round of a measure run: mid-run and end of
// run, with the round's fabrics still reachable).
func (rc *runCtx) heapSample() {
	if rc.sampleHeap {
		rc.heap = max(rc.heap, liveHeap())
	}
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeap forces a full GC and returns the bytes of live heap objects it
// marked.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeSample reads cumulative heap allocation and GC CPU.
func runtimeSample() (allocBytes uint64, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}
