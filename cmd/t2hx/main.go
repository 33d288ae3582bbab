// Command t2hx runs a single benchmark on one of the paper's five
// topology/routing/placement combinations — or on a multi-plane machine
// built from -planes specs — and prints per-trial metrics with whisker
// statistics.
//
// Examples:
//
//	t2hx -list
//	t2hx -combo 0 -bench imb:alltoall -n 28 -size 1048576
//	t2hx -combo 4 -bench app:MILC -n 32 -trials 5
//	t2hx -combo 2 -bench baidu -n 56 -size 1048576
//	t2hx -combo 2 -bench ebb -n 56 -samples 100
//	t2hx -combo 4 -bench mpigraph -n 28
//	t2hx -faults -n 28 -size 262144
//	t2hx -faults -combo 4 -failures 15 -detect 1ms -sweep-latency 4ms
//
// Multicore sweeps (all paper combos × message sizes over a worker pool;
// results are bit-identical for any -j):
//
//	t2hx -sweep -bench imb:alltoall -n 28 -sizes 4096,65536,1048576 -j 8
//	t2hx -faults -j 3
//
// Dual-plane machines (TSUBAME2's Fat-Tree rail + HyperX rail):
//
//	t2hx -combo 5 -bench imb:alltoall -n 28
//	t2hx -planes ft:updown,hyperx:parx -policy sizesplit:16384 -bench imb:alltoall -n 28
//	t2hx -planes ft:ftree,hx:parx -policy failover:1 -bench incast -n 16 -small
//
// Observability (IB-style counters, FCT records, Chrome trace):
//
//	t2hx -combo 0 -bench incast -n 8 -counters 10
//	t2hx -combo 2 -bench imb:alltoall -n 16 -metrics-out run.jsonl -trace-out run.json
//	t2hx -faults -combo 2 -trace-out sweep.json -counters 10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/place"
	"github.com/hpcsim/t2hx/internal/prof"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/trace"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// progressFlag is -progress: a bare -progress enables live sweep stats at
// the default cadence, -progress=500ms picks the cadence.
type progressFlag struct {
	interval time.Duration
}

const defaultProgressInterval = 2 * time.Second

func (p *progressFlag) String() string {
	if p.interval <= 0 {
		return "false"
	}
	return p.interval.String()
}

func (p *progressFlag) IsBoolFlag() bool { return true }

func (p *progressFlag) Set(s string) error {
	switch s {
	case "", "true":
		p.interval = defaultProgressInterval
		return nil
	case "false":
		p.interval = 0
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("want a duration (e.g. 500ms) or nothing: %w", err)
	}
	if d <= 0 {
		return fmt.Errorf("interval must be positive")
	}
	p.interval = d
	return nil
}

// profSession is finalized by fatal() so error exits still flush the CPU
// profile instead of truncating it.
var profSession *prof.Session

func main() {
	list := flag.Bool("list", false, "list combos and benchmarks")
	comboIdx := flag.Int("combo", 0, "combo index (see -list)")
	topoF := flag.String("topo", "", "custom combo: topology (fattree|hyperx); overrides -combo")
	routing := flag.String("routing", "", "custom combo: routing (ftree|sssp|dfsssp|updown|lash|parx)")
	placement := flag.String("placement", "linear", "custom combo: placement (linear|clustered|random)")
	planesF := flag.String("planes", "", "multi-plane machine: comma-separated topology:routing[:name] specs (e.g. ft:updown,hyperx:parx); overrides -combo and -topo")
	policy := flag.String("policy", "", "plane selection policy: single[:plane], sizesplit[:bytes], roundrobin, striped, failover[:primary]")
	bench := flag.String("bench", "", "benchmark: imb:<op>, app:<abbrev>, baidu, ebb, mpigraph")
	n := flag.Int("n", 28, "node count")
	size := flag.Int64("size", 1<<20, "message size / array length in bytes")
	trials := flag.Int("trials", 3, "repetitions")
	samples := flag.Int("samples", 100, "eBB bisection samples")
	small := flag.Bool("small", false, "use the 32-node test planes")
	seed := flag.Uint64("seed", 1, "master seed")
	noDegrade := flag.Bool("no-degrade", false, "ideal fabric without missing cables")
	saveProfile := flag.String("save-profile", "", "capture the benchmark's communication profile to this JSON file (for PARX ingestion)")
	faultsMode := flag.Bool("faults", false, "resilience scenario: inject runtime link failures mid-run and re-sweep (uses imb:<op> benches; default alltoall)")
	failures := flag.Int("failures", 0, "runtime link failures to inject (0 = paper count: 15 HyperX / 197 Fat-Tree)")
	degradedMode := flag.Bool("degraded", false, "degraded-topology survival sweep: seeded failure-chain variants per (engine x failure count) on the HyperX plane (uses imb:<op> benches; default alltoall)")
	scaleMode := flag.Bool("scale", false, "large-terminal endurance run: windowed closed-loop traffic on a big HyperX (default 12x8 at T=342, 32832 terminals, 1M delivered messages)")
	scaleT := flag.Int("scale-t", 0, "with -scale: terminals per switch (0 = 342)")
	scaleMsgs := flag.Uint64("scale-msgs", 0, "with -scale: delivered-message budget (0 = 1e6)")
	scaleWindow := flag.Int("scale-window", 0, "with -scale: in-flight message window (0 = 256)")
	enginesF := flag.String("engines", "hxmin,hxnm", "with -degraded: comma-separated HyperX routing engines to compare")
	countsF := flag.String("counts", "", "with -degraded: comma-separated failure counts (default 0,15,30,60,90; small planes 0,3,6,9,12)")
	variants := flag.Int("variants", 25, "with -degraded: seeded degradation variants per cell")
	detect := flag.Duration("detect", 0, "SM failure-detection delay (0 = 1ms default)")
	sweepLat := flag.Duration("sweep-latency", 0, "SM re-sweep latency before tables go live (0 = 4ms default)")
	sweepMode := flag.Bool("sweep", false, "sweep mode: run -bench across all paper combos x -sizes over the -j worker pool")
	sizesF := flag.String("sizes", "", "comma-separated message sizes for -sweep (default: the single -size)")
	jobs := flag.Int("j", 0, "worker pool size for -sweep and -faults batches (0 = GOMAXPROCS; results are identical for any -j)")
	metricsOut := flag.String("metrics-out", "", "stream run metrics + per-message FCT records + histograms + channel counters as JSONL to this file (O(1) memory at any run length)")
	traceOut := flag.String("trace-out", "", "stream a Chrome trace_event JSON timeline to this file (open in chrome://tracing or Perfetto)")
	countersN := flag.Int("counters", 0, "after the run, print the N hottest channels by XmitWait (perfquery-style readout)")
	retain := flag.Bool("retain", false, "with -metrics-out/-trace-out: also keep records in memory (buffered pre-streaming behaviour)")
	var progressF progressFlag
	flag.Var(&progressF, "progress", "print live sweep stats (cells/s, ETA, worker utilization, table-cache hit rate) to stderr; optionally =interval (default 2s)")
	progressOut := flag.String("progress-out", "", "append live sweep stats snapshots as JSONL \"progress\" lines to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	pprofHTTP := flag.String("pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	flag.Parse()

	var err error
	profSession, err = prof.Start(prof.Options{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, HTTPAddr: *pprofHTTP,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := profSession.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "t2hx:", err)
		}
	}()
	if *pprofHTTP != "" {
		fmt.Fprintf(os.Stderr, "pprof serving on http://%s/debug/pprof/\n", profSession.Addr())
	}

	tel := telCLI{
		metricsOut: *metricsOut, traceOut: *traceOut, topN: *countersN,
		retain: *retain, progress: progressF.interval, progressOut: *progressOut,
	}

	if *list {
		fmt.Println("Combos (Sec. 4.4.3 plus the dual-plane machine):")
		for i, c := range exp.AllCombos() {
			fmt.Printf("  %d: %s\n", i, c.Name)
		}
		fmt.Println("Benchmarks:")
		fmt.Println("  imb:" + strings.Join(workloads.IMBOps(), " imb:"))
		fmt.Print("  app:")
		for _, a := range workloads.Registry() {
			fmt.Printf("%s ", a.Abbrev)
		}
		fmt.Println("\n  baidu ebb mpigraph")
		return
	}
	if *scaleMode {
		// -size defaults to 1 MiB for the benches; the scale run's own
		// default is 64 KiB, so only an explicit -size overrides it.
		var msgBytes int64
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "size" {
				msgBytes = *size
			}
		})
		runScale(scaleCLI{
			t: *scaleT, msgs: *scaleMsgs, window: *scaleWindow,
			size: msgBytes, routing: *routing, seed: *seed,
		})
		return
	}
	if *bench == "" && !*faultsMode && !*degradedMode {
		flag.Usage()
		os.Exit(2)
	}
	combos := exp.AllCombos()
	if *comboIdx < 0 || *comboIdx >= len(combos) {
		fatal(fmt.Errorf("combo index out of range"))
	}
	combo := combos[*comboIdx]
	if *topoF != "" || *routing != "" {
		if *topoF == "" || *routing == "" {
			fatal(fmt.Errorf("custom combos need both -topo and -routing"))
		}
		combo = exp.Combo{
			Name:      fmt.Sprintf("%s / %s / %s", *topoF, *routing, *placement),
			Topology:  *topoF,
			Routing:   *routing,
			Placement: place.Strategy(*placement),
		}
	}
	if *planesF != "" {
		specs, err := exp.ParsePlaneSpecs(*planesF)
		if err != nil {
			fatal(err)
		}
		combo = exp.Combo{
			Name:      fmt.Sprintf("custom planes %s / %s", *planesF, *placement),
			Placement: place.Strategy(*placement),
			Planes:    specs,
			Policy:    *policy,
		}
	}
	if *faultsMode {
		op := "alltoall"
		if strings.HasPrefix(*bench, "imb:") {
			op = strings.TrimPrefix(*bench, "imb:")
		} else if *bench != "" {
			fatal(fmt.Errorf("-faults only supports imb:<op> benches, got %q", *bench))
		}
		// Default: the paper's headline trio, ftree vs DFSSSP vs PARX.
		// An explicit -combo/-topo selection narrows to that one combo.
		selected := []exp.Combo{combos[0], combos[2], combos[4]}
		explicit := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "combo" || fl.Name == "topo" {
				explicit = true
			}
		})
		if explicit {
			selected = []exp.Combo{combo}
		}
		runFaults(selected, faultCLI{
			op: op, n: *n, size: *size, failures: *failures, seed: *seed,
			detect: sim.Duration(detect.Seconds()), sweep: sim.Duration(sweepLat.Seconds()),
			small: *small, degrade: !*noDegrade, jobs: *jobs,
		}, tel)
		return
	}
	if *degradedMode {
		op := "alltoall"
		if strings.HasPrefix(*bench, "imb:") {
			op = strings.TrimPrefix(*bench, "imb:")
		} else if *bench != "" {
			fatal(fmt.Errorf("-degraded only supports imb:<op> benches, got %q", *bench))
		}
		runDegraded(degradedCLI{
			engines: *enginesF, counts: *countsF, variants: *variants,
			op: op, n: *n, size: *size, seed: *seed,
			detect: sim.Duration(detect.Seconds()), sweep: sim.Duration(sweepLat.Seconds()),
			small: *small, jobs: *jobs,
		}, tel)
		return
	}
	if *sweepMode {
		sizes, err := parseSizes(*sizesF, *size)
		if err != nil {
			fatal(err)
		}
		runSweep(*bench, sizes, sweepCLI{
			n: *n, trials: *trials, seed: *seed,
			small: *small, degrade: !*noDegrade, jobs: *jobs,
		}, tel)
		return
	}

	m, err := exp.BuildMachine(combo, exp.MachineConfig{
		Degrade: !*noDegrade, Seed: *seed, Small: *small, Policy: *policy,
	})
	if err != nil {
		fatal(err)
	}
	if m.MultiPlane() {
		fmt.Printf("combo: %s  policy: %s\n", combo.Name, m.PolicySpec())
		for i, p := range m.Planes {
			fmt.Printf("  plane %d: %s — %s (%d nodes)\n", i, p.Spec.Label(), p.G.Name, p.G.NumTerminals())
		}
	} else {
		fmt.Printf("combo: %s  plane: %s (%d nodes)\n", combo.Name, m.G.Name, m.G.NumTerminals())
	}

	switch {
	case strings.HasPrefix(*bench, "imb:"):
		op := strings.TrimPrefix(*bench, "imb:")
		runTrials(m, *n, *trials, *seed, "us/op", tel, func(nn int) (*workloads.Instance, error) {
			return workloads.BuildIMB(op, nn, *size)
		})
	case *bench == "incast" || strings.HasPrefix(*bench, "incast:"):
		group := 0
		if s := strings.TrimPrefix(*bench, "incast:"); s != *bench {
			if _, err := fmt.Sscanf(s, "%d", &group); err != nil {
				fatal(fmt.Errorf("bad incast group %q", s))
			}
		}
		runTrials(m, *n, *trials, *seed, "us/op", tel, func(nn int) (*workloads.Instance, error) {
			if group > 0 {
				return workloads.BuildGroupedIncast(nn, group, *size)
			}
			return workloads.BuildIncast(nn, *size)
		})
	case strings.HasPrefix(*bench, "app:"):
		app, err := workloads.FindApp(strings.TrimPrefix(*bench, "app:"))
		if err != nil {
			fatal(err)
		}
		if *saveProfile != "" {
			p := trace.Capture(app.Instance(*n).Progs)
			if err := p.Save(*saveProfile); err != nil {
				fatal(err)
			}
			fmt.Printf("communication profile saved to %s\n", *saveProfile)
		}
		runTrials(m, *n, *trials, *seed, app.Metric, tel, func(nn int) (*workloads.Instance, error) {
			return app.Instance(nn), nil
		})
	case *bench == "baidu":
		runTrials(m, *n, *trials, *seed, "s", tel, func(nn int) (*workloads.Instance, error) {
			return workloads.BuildBaiduAllreduce(nn, *size/4), nil
		})
	case *bench == "ebb":
		ranks, err := m.Place(*n, *seed)
		if err != nil {
			fatal(err)
		}
		msgr, err := m.NewMessenger(*seed)
		if err != nil {
			fatal(err)
		}
		col, tm := tel.attachAny(m, msgr)
		res, err := workloads.EffectiveBisectionBandwidth(msgr, ranks, *samples, *size, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("eBB over %d samples: mean %.3f GiB/s (min %.3f, max %.3f)\n",
			len(res.Samples), res.MeanGiB, res.MinGiB, res.MaxGiB)
		printPlaneShares(msgr)
		tel.report(col, "")
		tel.reportMulti(tm, "")
	case *bench == "mpigraph":
		ranks, err := m.Place(*n, *seed)
		if err != nil {
			fatal(err)
		}
		msgr, err := m.NewMessenger(*seed)
		if err != nil {
			fatal(err)
		}
		col, tm := tel.attachAny(m, msgr)
		res := workloads.MpiGraph(msgr, ranks, *size)
		fmt.Printf("mpiGraph avg %.3f GiB/s (min %.3f, max %.3f)\n", res.AvgGiB, res.MinGiB, res.MaxGiB)
		printPlaneShares(msgr)
		tel.report(col, "")
		tel.reportMulti(tm, "")
	default:
		fatal(fmt.Errorf("unknown benchmark %q", *bench))
	}
}

// telCLI carries the observability flags: which artifacts to produce and
// where. The collector always records counters; message records and trace
// events are only enabled when an output file wants them, and both stream
// to their files as they close (attach opens the sinks, report finishes
// them) so a 10k-terminal run never holds its records in memory.
type telCLI struct {
	metricsOut  string
	traceOut    string
	topN        int
	retain      bool
	progress    time.Duration
	progressOut string
}

func (t telCLI) enabled() bool {
	return t.metricsOut != "" || t.traceOut != "" || t.topN > 0
}

// options maps the flags to collector options.
func (t telCLI) options() telemetry.Options {
	return telemetry.Options{
		Counters: true,
		Messages: t.metricsOut != "",
		Trace:    t.traceOut != "",
		Retain:   t.retain,
	}
}

// openSinks creates the output files for suffix and attaches streaming
// sinks to any collector interface exposing the Set methods.
func (t telCLI) openSinks(c interface {
	SetSink(telemetry.Sink)
	SetTraceSink(telemetry.Sink)
}, suffix string) {
	if t.metricsOut != "" {
		w, err := os.Create(outName(t.metricsOut, suffix))
		if err != nil {
			fatal(err)
		}
		c.SetSink(telemetry.NewJSONLSink(w))
	}
	if t.traceOut != "" {
		w, err := os.Create(outName(t.traceOut, suffix))
		if err != nil {
			fatal(err)
		}
		c.SetTraceSink(telemetry.NewTraceSink(w))
	}
}

// attach builds a collector for the machine's graph, opens its streaming
// sinks, and hooks it into the fabric; nil when no observability flag was
// given.
func (t telCLI) attach(m *exp.Machine, f *fabric.Fabric) *telemetry.Collector {
	if !t.enabled() {
		return nil
	}
	col := telemetry.New(m.G, t.options())
	t.openSinks(col, "")
	f.AttachTelemetry(col)
	return col
}

// attachMulti builds one collector per plane sharing streamed output
// files and hooks the set into the multi-fabric; nil when no
// observability flag was given.
func (t telCLI) attachMulti(m *exp.Machine, mf *fabric.MultiFabric) *telemetry.Multi {
	if !t.enabled() {
		return nil
	}
	gs := make([]*topo.Graph, len(m.Planes))
	names := make([]string, len(m.Planes))
	for i, p := range m.Planes {
		gs[i] = p.G
		names[i] = p.Spec.Label()
	}
	tm := telemetry.NewMulti(gs, names, t.options())
	t.openSinks(tm, "")
	if err := mf.AttachTelemetry(tm); err != nil {
		fatal(err)
	}
	return tm
}

// attachAny dispatches on the messenger's concrete type; exactly one of
// the returns is non-nil when observability is on.
func (t telCLI) attachAny(m *exp.Machine, msgr fabric.Messenger) (*telemetry.Collector, *telemetry.Multi) {
	switch f := msgr.(type) {
	case *fabric.MultiFabric:
		return nil, t.attachMulti(m, f)
	case *fabric.Fabric:
		return t.attach(m, f), nil
	}
	return nil, nil
}

// report emits the post-run artifacts: the perfquery-style hot-channel
// table on stdout, then finishes the metrics and trace streams opened at
// attach. A failed stream (full disk, closed pipe) is fatal — the process
// exits non-zero rather than leaving a silently truncated metrics file.
// suffix distinguishes combos when one invocation covers several (fault
// mode); it must match the suffix the sinks were opened under.
func (t telCLI) report(col *telemetry.Collector, suffix string) {
	if col == nil {
		return
	}
	if t.topN > 0 && col.Chans != nil {
		fmt.Println()
		if err := telemetry.FprintHotLinks(os.Stdout, col.Chans, t.topN, col.Now()); err != nil {
			fatal(err)
		}
	}
	if t.metricsOut != "" {
		if err := col.FinishStream(); err != nil {
			fatal(fmt.Errorf("metrics export: %w", err))
		}
		fmt.Printf("metrics written to %s\n", outName(t.metricsOut, suffix))
	}
	if t.traceOut != "" {
		if err := col.FinishTraceStream(); err != nil {
			fatal(fmt.Errorf("trace export: %w", err))
		}
		fmt.Printf("trace written to %s (open in chrome://tracing)\n", outName(t.traceOut, suffix))
	}
}

// reportMulti finishes the per-plane artifacts for a multi-plane run: one
// hot-channel table per plane, then the shared metrics stream (per-plane
// footers plus the machine summary line) and the merged Chrome trace
// where each plane gets its own pid group.
func (t telCLI) reportMulti(tm *telemetry.Multi, suffix string) {
	if tm == nil {
		return
	}
	if t.topN > 0 {
		for _, c := range tm.Planes {
			if c.Chans == nil {
				continue
			}
			fmt.Printf("\n[%s]\n", c.PlaneName)
			if err := telemetry.FprintHotLinks(os.Stdout, c.Chans, t.topN, c.Now()); err != nil {
				fatal(err)
			}
		}
	}
	if t.metricsOut != "" {
		if err := tm.FinishStream(); err != nil {
			fatal(fmt.Errorf("metrics export: %w", err))
		}
		fmt.Printf("metrics written to %s\n", outName(t.metricsOut, suffix))
	}
	if t.traceOut != "" {
		if err := tm.FinishTraceStream(); err != nil {
			fatal(fmt.Errorf("trace export: %w", err))
		}
		fmt.Printf("trace written to %s (open in chrome://tracing)\n", outName(t.traceOut, suffix))
	}
}

// statsHook wires -progress/-progress-out into a runner: a ticker
// publishes RunnerStats snapshots rendered as a live stderr status line
// and/or streamed as JSONL "progress" lines. The returned finish must run
// after the sweep (it closes the progress file and reports its errors).
func (t telCLI) statsHook(r *exp.Runner) (finish func()) {
	if t.progress <= 0 && t.progressOut == "" {
		return func() {}
	}
	r.StatsInterval = t.progress
	if r.StatsInterval <= 0 {
		r.StatsInterval = defaultProgressInterval
	}
	r.Cache = exp.DefaultTableCache
	var sink *telemetry.JSONLSink
	if t.progressOut != "" {
		w, err := os.Create(t.progressOut)
		if err != nil {
			fatal(err)
		}
		// Flush per snapshot: the file exists to be tailed while the
		// sweep runs.
		sink = telemetry.NewJSONLSink(w).FlushEvery(1)
	}
	human := t.progress > 0
	var mu sync.Mutex
	r.OnStats = func(s exp.RunnerStats) {
		mu.Lock()
		defer mu.Unlock()
		if human {
			line := fmt.Sprintf("\r  [%d/%d] %.2f cells/s  util %3.0f%%", s.Done, s.Total, s.CellsPerSec, 100*s.Utilization)
			if s.ETA > 0 {
				line += fmt.Sprintf("  eta %s", s.ETA.Round(time.Second))
			}
			if s.Cache != nil && s.Cache.Lookups() > 0 {
				line += fmt.Sprintf("  cache %.0f%% hit", 100*s.Cache.HitRate())
			}
			fmt.Fprintf(os.Stderr, "%-78s", line)
			if s.Final {
				fmt.Fprintln(os.Stderr)
			}
		}
		if sink != nil {
			sink.Write(s) //nolint:errcheck // sticky; surfaced by Close in finish
		}
	}
	return func() {
		if sink != nil {
			if err := sink.Close(); err != nil {
				fatal(fmt.Errorf("progress-out: %w", err))
			}
		}
	}
}

// printPlaneShares prints the policy's traffic split after a multi-plane
// run; a no-op for plain fabrics.
func printPlaneShares(msgr fabric.Messenger) {
	mf, ok := msgr.(*fabric.MultiFabric)
	if !ok {
		return
	}
	fmt.Printf("policy %s plane shares:", mf.PolicyName())
	for p := 0; p < mf.NumPlanes(); p++ {
		share := 0.0
		if mf.Messages > 0 {
			share = 100 * float64(mf.PlaneMessages[p]) / float64(mf.Messages)
		}
		fmt.Printf("  %s %d msgs (%.1f%%)", mf.PlaneName(p), mf.PlaneMessages[p], share)
	}
	if mf.Redispatches > 0 {
		fmt.Printf("  [%d redispatched across planes]", mf.Redispatches)
	}
	fmt.Println()
}

// outName inserts a combo suffix before the extension: run.json +
// "hyperx-dfsssp" -> run.hyperx-dfsssp.json.
func outName(base, suffix string) string {
	if suffix == "" {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + suffix + ext
}

// comboSlug is a filename-safe tag for a combo.
func comboSlug(c exp.Combo) string {
	return fmt.Sprintf("%s-%s", c.Topology, c.Routing)
}

type faultCLI struct {
	op       string
	n        int
	size     int64
	failures int
	seed     uint64
	detect   sim.Duration
	sweep    sim.Duration
	small    bool
	degrade  bool
	jobs     int
}

// runFaults runs the resilience scenario per combo — the scenarios run in
// parallel over the -j worker pool (each against its own machine), and the
// degradation reports print in combo order afterwards: makespans, re-sweep
// latency stats, damage counters, and goodput before/during/after the
// outage window.
func runFaults(selected []exp.Combo, cli faultCLI, tel telCLI) {
	const gib = 1 << 30
	specs := make([]exp.FaultSpec, 0, len(selected))
	cols := make([]*telemetry.Collector, len(selected))
	for i, c := range selected {
		m, err := exp.BuildMachine(c, exp.MachineConfig{
			Degrade: cli.degrade, Seed: cli.seed, Small: cli.small,
		})
		if err != nil {
			fatal(err)
		}
		failures := cli.failures
		if failures == 0 {
			failures = exp.DefaultFailures(m)
		}
		if tel.enabled() {
			cols[i] = telemetry.New(m.G, tel.options())
			suffix := ""
			if len(selected) > 1 {
				suffix = comboSlug(c)
			}
			tel.openSinks(cols[i], suffix)
		}
		specs = append(specs, exp.FaultSpec{
			Machine: m, Nodes: cli.n, Failures: failures, Seed: cli.seed,
			Detect: cli.detect, Sweep: cli.sweep, Telemetry: cols[i],
			Build: func(nn int) (*workloads.Instance, error) {
				return workloads.BuildIMB(cli.op, nn, cli.size)
			},
		})
	}
	r := exp.Runner{Workers: cli.jobs, BaseSeed: cli.seed}
	finishStats := tel.statsHook(&r)
	results, err := exp.RunFaultBatch(r, specs)
	finishStats()
	if err != nil && results == nil {
		fatal(err) // structural rejection: nothing ran
	}
	for i, c := range selected {
		m, res := specs[i].Machine, results[i]
		fmt.Printf("\n%s  plane: %s (%d nodes)\n", c.Name, m.G.Name, m.G.NumTerminals())
		fmt.Printf("  injecting %d runtime link failures into imb:%s (%d ranks, %d B)\n",
			specs[i].Failures, cli.op, cli.n, cli.size)
		if res == nil || res.Faulted == 0 {
			fmt.Printf("  scenario did not complete (see errors below)\n")
			continue
		}
		st := res.SweepStats()
		fmt.Printf("  makespan: baseline %.3f ms -> faulted %.3f ms (+%.1f%%)\n",
			1e3*float64(res.Baseline), 1e3*float64(res.Faulted), 100*res.Slowdown())
		fmt.Printf("  re-sweeps: %d (%d rejected), outage window min %.3f / median %.3f / max %.3f ms\n",
			len(res.Sweeps), len(res.Sweeps)-len(res.Latencies),
			1e3*st.Min, 1e3*st.Median, 1e3*st.Max)
		fmt.Printf("  flows torn down %d, retries %d, lost %d of %d messages\n",
			res.TornDown, res.Retries, res.GiveUps, res.Messages)
		fmt.Printf("  goodput GiB/s: before %.3f | during %.3f | after %.3f\n",
			res.GoodputBefore/gib, res.GoodputDuring/gib, res.GoodputAfter/gib)
		suffix := ""
		if len(selected) > 1 {
			suffix = comboSlug(c)
		}
		tel.report(cols[i], suffix)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "t2hx: some scenarios failed:\n%v\n", err)
		os.Exit(1)
	}
}

type degradedCLI struct {
	engines  string
	counts   string
	variants int
	op       string
	n        int
	size     int64
	seed     uint64
	detect   sim.Duration
	sweep    sim.Duration
	small    bool
	jobs     int
}

// runDegraded executes the at-scale degraded-topology survival sweep:
// hundreds of seeded failure-chain variants per (engine x failure count)
// cell on the HyperX plane, each run through the full SM fault scenario,
// then aggregated into one row per cell with goodput, re-sweep latency,
// unreachable-pair and deadlock-margin columns.
func runDegraded(cli degradedCLI, tel telCLI) {
	var engines []string
	for _, e := range strings.Split(cli.engines, ",") {
		if e = strings.TrimSpace(e); e != "" {
			engines = append(engines, e)
		}
	}
	countsDefault := "0,15,30,60,90"
	if cli.small {
		countsDefault = "0,3,6,9,12"
	}
	if strings.TrimSpace(cli.counts) == "" {
		cli.counts = countsDefault
	}
	var counts []int
	for _, f := range strings.Split(cli.counts, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil || v < 0 {
			fatal(fmt.Errorf("bad -counts entry %q", f))
		}
		counts = append(counts, v)
	}
	spec := exp.DegradedSpec{
		Engines: engines,
		Workloads: []exp.DegradedWorkload{{
			Name: "imb:" + cli.op,
			Build: func(nn int) (*workloads.Instance, error) {
				return workloads.BuildIMB(cli.op, nn, cli.size)
			},
		}},
		Counts: counts, Variants: cli.variants,
		Nodes: cli.n, Small: cli.small, Seed: cli.seed,
		Detect: cli.detect, SweepLatency: cli.sweep,
	}
	total := len(engines) * len(counts) * cli.variants
	fmt.Printf("degraded survival sweep: %d engines x %d counts x %d variants = %d cells (imb:%s, %d ranks, %d B, -j %d)\n",
		len(engines), len(counts), cli.variants, total, cli.op, cli.n, cli.size,
		exp.Runner{Workers: cli.jobs}.WorkerCount())
	r := exp.Runner{
		Workers: cli.jobs, BaseSeed: cli.seed,
		Progress: func(done, totalCells int, label string) {
			fmt.Fprintf(os.Stderr, "\r  [%d/%d] %-40s", done, totalCells, label)
		},
	}
	if tel.progress > 0 {
		// The richer ticker line replaces the per-cell label line; both
		// rewrite the same stderr row.
		r.Progress = nil
	}
	finishStats := tel.statsHook(&r)
	results, err := exp.RunDegraded(r, spec)
	finishStats()
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "engine\tfailures\tsurvived\tslowdown\tgoodput(GiB/s)\tsweepP50(ms)\tsweepMax(ms)\tunreach(mean/max)\tmargin(min/mean)")
	const gib = 1 << 30
	for _, row := range exp.SummarizeDegraded(results) {
		fmt.Fprintf(w, "%s\t%d\t%d/%d\t%+.1f%%\t%.3f\t%.3f\t%.3f\t%.1f/%d\t%.3f/%.3f\n",
			row.Engine, row.Failures, row.Survived, row.Variants,
			100*row.SlowdownMed, row.GoodputDuringMed/gib,
			1e3*float64(row.SweepP50Med), 1e3*float64(row.SweepMaxMax),
			row.UnreachableMean, row.UnreachableMax,
			row.MarginMin, row.MarginMean)
	}
	w.Flush()
	printCacheStats()
}

// printCacheStats summarizes the process-wide table cache after a sweep:
// the hit rate says how much routing work the cells shared.
func printCacheStats() {
	s := exp.DefaultTableCache.Stats()
	if s.Lookups() == 0 {
		return
	}
	fmt.Printf("table cache: %d hits / %d lookups (%.1f%% hit rate), %d evictions\n",
		s.Hits, s.Lookups(), 100*s.HitRate(), s.Evictions)
}

type sweepCLI struct {
	n, trials int
	seed      uint64
	small     bool
	degrade   bool
	jobs      int
}

// parseSizes decodes the -sizes list; empty falls back to the single
// -size value.
func parseSizes(s string, fallback int64) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return []int64{fallback}, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweepBuilder resolves a trial-based benchmark name to its instance
// builder; ebb and mpigraph sample bandwidth directly and don't fit the
// trial loop, so -sweep rejects them.
func sweepBuilder(bench string, size int64) (func(int) (*workloads.Instance, error), error) {
	switch {
	case strings.HasPrefix(bench, "imb:"):
		op := strings.TrimPrefix(bench, "imb:")
		return func(nn int) (*workloads.Instance, error) { return workloads.BuildIMB(op, nn, size) }, nil
	case bench == "incast":
		return func(nn int) (*workloads.Instance, error) { return workloads.BuildIncast(nn, size) }, nil
	case strings.HasPrefix(bench, "app:"):
		app, err := workloads.FindApp(strings.TrimPrefix(bench, "app:"))
		if err != nil {
			return nil, err
		}
		return func(nn int) (*workloads.Instance, error) { return app.Instance(nn), nil }, nil
	case bench == "baidu":
		return func(nn int) (*workloads.Instance, error) { return workloads.BuildBaiduAllreduce(nn, size/4), nil }, nil
	}
	return nil, fmt.Errorf("-sweep supports imb:<op>, incast, app:<abbrev> and baidu benches, got %q", bench)
}

// runSweep executes -bench across all paper combos x sizes over the -j
// pool and prints one whisker line per cell, in enumeration order. Cell
// seeds derive from (-seed, cell index), so the table is bit-identical for
// any -j.
func runSweep(bench string, sizes []int64, cli sweepCLI, tel telCLI) {
	if bench == "" {
		fatal(fmt.Errorf("-sweep needs a -bench"))
	}
	combos := exp.PaperCombos()
	var cells []exp.SweepCell
	for _, c := range combos {
		for _, sz := range sizes {
			build, err := sweepBuilder(bench, sz)
			if err != nil {
				fatal(err)
			}
			cells = append(cells, exp.SweepCell{
				Label: fmt.Sprintf("%-34s %9d B", c.Name, sz),
				Combo: c,
				Cfg:   exp.MachineConfig{Degrade: cli.degrade, Seed: cli.seed, Small: cli.small},
				Nodes: cli.n, Trials: cli.trials, Jitter: 0.02,
				Build: build,
			})
		}
	}
	r := exp.Runner{Workers: cli.jobs, BaseSeed: cli.seed, Progress: func(done, total int, label string) {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, strings.Join(strings.Fields(label), " "))
	}}
	if tel.progress > 0 {
		r.Progress = nil // the ticker status line replaces per-cell lines
	}
	finishStats := tel.statsHook(&r)
	fmt.Printf("sweep: %s over %d combos x %d sizes, %d trials each, %d workers\n",
		bench, len(combos), len(sizes), cli.trials, r.WorkerCount())
	results, err := exp.RunSweep(r, cells)
	finishStats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-34s %11s %10s %10s %10s %10s %10s\n",
		"combo", "size", "min", "q1", "median", "q3", "max")
	for _, res := range results {
		st := res.Stats
		fmt.Printf("%s %10.4g %10.4g %10.4g %10.4g %10.4g\n",
			res.Label, st.Min, st.Q1, st.Median, st.Q3, st.Max)
	}
	printCacheStats()
}

func runTrials(m *exp.Machine, n, trials int, seed uint64, unit string, tel telCLI,
	build func(int) (*workloads.Instance, error)) {
	// The collector observes the final trial only, so its counters and
	// trace cover a single engine timeline rather than overlapping runs.
	last := trials - 1
	if last < 0 {
		last = 0
	}
	var col *telemetry.Collector
	var tm *telemetry.Multi
	var lastMsgr fabric.Messenger
	attach := func(t int, msgr fabric.Messenger) {
		if t == last {
			lastMsgr = msgr
			if tel.enabled() {
				col, tm = tel.attachAny(m, msgr)
			}
		}
	}
	vals, _, err := exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: n, Trials: trials, Seed: seed, Jitter: 0.02, Build: build,
		Attach: attach,
	})
	if err != nil {
		fatal(err)
	}
	st := exp.Summarize(vals)
	fmt.Printf("trials: ")
	for _, v := range vals {
		fmt.Printf("%.4g ", v)
	}
	fmt.Printf("\nmin %.4g | q1 %.4g | median %.4g | q3 %.4g | max %.4g  [%s]\n",
		st.Min, st.Q1, st.Median, st.Q3, st.Max, unit)
	if lastMsgr != nil {
		printPlaneShares(lastMsgr)
	}
	tel.report(col, "")
	tel.reportMulti(tm, "")
}

type scaleCLI struct {
	t       int
	msgs    uint64
	window  int
	size    int64
	routing string
	seed    uint64
}

// runScale is the -scale mode: the 32k-terminal endurance configuration
// (or a custom-sized variant) with live progress on stderr and a summary
// line of wall/sim cost and peak RSS.
func runScale(cli scaleCLI) {
	start := time.Now()
	spec := exp.ScaleSpec{
		T: cli.t, Messages: cli.msgs, Window: cli.window,
		MsgBytes: cli.size, Routing: cli.routing, Seed: cli.seed,
		Progress: func(delivered uint64, now sim.Time, events uint64) {
			wall := time.Since(start)
			evps := 0.0
			if s := wall.Seconds(); s > 0 {
				evps = float64(events) / s
			}
			fmt.Fprintf(os.Stderr, "\rscale: %d delivered  sim %.3fs  wall %s  %.2fM events/s ",
				delivered, float64(now), wall.Round(time.Second), evps/1e6)
		},
	}
	res, err := exp.RunScale(spec)
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scale run: %d terminals over %d switches\n", res.Terminals, res.Switches)
	fmt.Printf("delivered %d messages (%.2f GiB) in %.3f simulated s\n",
		res.Delivered, res.DeliveredBytes/(1<<30), float64(res.SimElapsed))
	fmt.Printf("build %s | run %s (%.0f msgs/s, %.0f events/s) | %d events | %d flow recomputes\n",
		res.BuildWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond),
		float64(res.Delivered)/res.RunWall.Seconds(), float64(res.Events)/res.RunWall.Seconds(),
		res.Events, res.Recomputes)
	if res.PeakRSSBytes > 0 {
		fmt.Printf("peak RSS %.1f MiB\n", float64(res.PeakRSSBytes)/(1<<20))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "t2hx:", err)
	if perr := profSession.Stop(); perr != nil {
		fmt.Fprintln(os.Stderr, "t2hx:", perr)
	}
	os.Exit(1)
}
