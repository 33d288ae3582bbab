package main

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// paperCombos are Fig. 1's machines, indexes into exp.PaperCombos():
// Fat-Tree/ftree, HyperX/DFSSSP (minimal) and HyperX/PARX.
var paperCombos = []int{0, 2, 4}

// rackNodes is Fig. 1's rack: 28 consecutive nodes of the hostfile.
const rackNodes = 28

// paperJob is one MPI job run on every machine through exp.RunTrials.
type paperJob struct {
	name  string
	nodes int
	build func(n int) (*workloads.Instance, error)
}

var paperJobs = []paperJob{
	{"allreduce", 128, func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("allreduce", n, 64<<10) }},
	{"alltoall", 32, func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("alltoall", n, 16<<10) }},
	{"MILC", 64, func(n int) (*workloads.Instance, error) {
		app, err := workloads.FindApp("MILC")
		if err != nil {
			return nil, err
		}
		return app.Instance(n), nil
	}},
}

// paper runs Fig. 1's mpiGraph rack, two IMB collectives and a Fig. 6 app
// on each of Fig. 1's three machines, built cold with the paper's missing
// cables as cmd/figures does by default.
type paper struct {
	seed     uint64
	machines []*exp.Machine
}

func newPaper(seed uint64) *paper { return &paper{seed: seed} }

func (p *paper) setup(m *meter) error {
	if m.trace {
		// Time topology construction apart (BuildMachine does it again).
		t0 := cpuSeconds()
		topo.NewPaperFatTree(true, machineSeed)
		topo.NewPaperHyperX(true, machineSeed)
		topo.NewPaperHyperX(true, machineSeed)
		m.topoCPU = cpuSeconds() - t0
	}
	t0 := cpuSeconds()
	a0, _ := runtimeSample()
	for _, ci := range paperCombos {
		mc, err := exp.BuildMachine(exp.PaperCombos()[ci], exp.MachineConfig{Degrade: true, Seed: machineSeed})
		if err != nil {
			return err
		}
		p.machines = append(p.machines, mc)
	}
	a1, _ := runtimeSample()
	m.routeCPU = cpuSeconds() - t0 - m.topoCPU
	m.routeAlloc = a1 - a0
	m.machines = len(p.machines)
	return nil
}

func (p *paper) run(rc *runCtx) (*outcome, error) {
	o := &outcome{outputs: map[string]float64{}, counts: map[string]float64{}}
	var makespan float64
	// account folds one fabric's message counts into the round.
	account := func(f *fabric.Fabric) {
		o.attempted += f.Messages
		o.delivered += f.Delivered
		o.failed += f.Messages - f.Delivered + f.GiveUps
		if f.Delivered != f.Messages || f.GiveUps != 0 {
			o.errorf("%s: delivered %d of %d submitted, %d gave up", f.Tables.Engine, f.Delivered, f.Messages, f.GiveUps)
		}
		o.counts["events"] += float64(f.Eng.Processed)
		o.counts["solves"] += float64(f.Net.Recomputes)
		o.counts["retries"] += float64(f.Retries)
		o.counts["giveups"] += float64(f.GiveUps)
		makespan += float64(f.Eng.Now())
	}
	// The traffic stream picks the rack (stream 1 is Fig. 1's first rack)
	// and seeds the PML, placement and compute jitter the way
	// cmd/figures -seed does.
	rack := int((p.seed - 1) % uint64(672/rackNodes))
	avg := make([]float64, len(p.machines))
	for mi, m := range p.machines {
		f, err := m.NewFabric(p.seed)
		if err != nil {
			return nil, err
		}
		rc.observe(f)
		ranks := m.G.Terminals()[rack*rackNodes : (rack+1)*rackNodes]
		rc.begin()
		res := workloads.MpiGraph(f, ranks, 1<<20)
		rc.settled()
		rc.end()
		account(f)
		avg[mi] = res.AvgGiB
		o.outputs[fmt.Sprintf("fig1_gib_%d", mi)] = res.AvgGiB

		for _, job := range paperJobs {
			var fabs []*fabric.Fabric
			rc.begin()
			vals, inst, err := exp.RunTrials(exp.TrialSpec{
				Machine: m, Nodes: job.nodes, Trials: 1, Seed: p.seed + uint64(job.nodes),
				Jitter: 0.02,
				Build: func(n int) (*workloads.Instance, error) {
					t := cpuSeconds()
					defer func() { rc.buildCPU += cpuSeconds() - t }()
					return job.build(n)
				},
				Attach: func(_ int, msg fabric.Messenger) {
					f := msg.(*fabric.Fabric)
					fabs = append(fabs, f)
					rc.observe(f)
				},
			})
			rc.settled()
			rc.end()
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", job.name, m.Combo.Name, err)
			}
			for _, f := range fabs {
				account(f)
			}
			for _, prog := range inst.Progs {
				o.counts["mpi_ops"] += float64(prog.Steps())
			}
			o.outputs[fmt.Sprintf("score_%s_%d", job.name, mi)] = vals[0]
		}
		if mi == len(p.machines)/2 {
			rc.heapSample()
		}
	}
	rc.heapSample()
	o.outputs["makespan_s"] = makespan
	// Fig. 1's ordering holds on every rack: the Fat-Tree beats PARX, and
	// PARX recovers bandwidth over minimal HyperX routing.
	if !(avg[0] > avg[2] && avg[2] > avg[1]) {
		o.errorf("Fig. 1 averages %.4f/%.4f/%.4f GiB/s break Fat-Tree > PARX > minimal", avg[0], avg[1], avg[2])
	}
	return o, nil
}
