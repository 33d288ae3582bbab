// Package fabric binds a topology, a routing configuration and the
// flow-level network into a message-delivery service with an InfiniBand
// cost model: per-message software overhead (the MPI/verbs stack),
// per-hop wire+switch latency, and max-min-fair bandwidth sharing on the
// routed path. It also implements the two point-to-point messaging layers
// (PMLs) the paper compares: ob1 (base-LID routing, the OpenMPI default)
// and the modified bfo that selects among PARX's four destination LIDs by
// quadrant and message size (Sec. 3.2.4).
package fabric

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/flow"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// PML selects the point-to-point messaging layer.
type PML uint8

const (
	// Ob1 is OpenMPI's default PML: every message targets the base LID.
	Ob1 PML = iota
	// BFO is the paper's modified bfo PML: the destination LID is chosen
	// from Table 1 by quadrant pair and message size. Requires PARX tables
	// on a 2-D HyperX.
	BFO
)

// Params is the fabric cost model. Zero values select the calibrated QDR
// defaults.
type Params struct {
	// SendOverhead is the per-message software overhead on the send side
	// (MPI + verbs + HCA doorbell).
	SendOverhead sim.Duration
	// RecvOverhead is the receive-side completion overhead.
	RecvOverhead sim.Duration
	// BFOPenalty is the additional per-message overhead of the bfo PML,
	// which the paper found markedly less tuned than ob1 (Sec. 5.1:
	// Barrier slows down 2.8x-6.9x under PARX/bfo).
	BFOPenalty sim.Duration
	// NodeBandwidth caps a node's aggregate send+receive rate (the
	// PCIe-gen2/HCA bottleneck of the QDR generation). 0 selects the
	// default; negative disables the cap.
	NodeBandwidth float64
}

// DefaultNodeBandwidth reflects a ConnectX-2-era HCA behind PCIe gen2 x8:
// ~3.2 GiB/s one way, ~1.5x that when sending and receiving concurrently —
// which is why the paper's mpiGraph tops out near 3 GiB/s and averages
// 2.26 on the contention-free Fat-Tree.
const DefaultNodeBandwidth = 1.5 * 3.2 * 1024 * 1024 * 1024

// DefaultParams yields end-to-end small-message latencies of ~1.3 us on a
// 3-hop path, matching QDR-generation MPI ping-pong numbers.
func DefaultParams() Params {
	return Params{
		SendOverhead: 600 * sim.Nanosecond,
		RecvOverhead: 200 * sim.Nanosecond,
		BFOPenalty:   4000 * sim.Nanosecond,
	}
}

// Fabric delivers messages between terminals.
type Fabric struct {
	Eng    *sim.Engine
	G      *topo.Graph
	Tables *route.Tables
	Net    *flow.Network
	Params Params

	pml       PML
	hx        *topo.HyperX // set when the bfo PML is active
	threshold int64
	rng       *sim.Rand

	// path cache: key = srcTerm index * (maxLID+1) + lid.
	paths     map[int64][]topo.ChannelID
	quadrants []core.Quadrant // per terminal index, when bfo
	// nodeChan0 is the first per-terminal aggregate-bandwidth channel in
	// the flow network, or -1 when the cap is disabled.
	nodeChan0 topo.ChannelID
	// lt tracks per-channel occupancy for adaptive path selection.
	lt *loadTracker

	// Tel is the attached observability collector; nil (the default)
	// keeps every telemetry hook on the send/deliver path a no-op. Use
	// AttachTelemetry rather than setting the field, so the flow network
	// is wired too.
	Tel *telemetry.Collector

	// res enables mid-run fault tolerance; nil keeps the legacy fail-fast
	// behaviour (panic on unroutable sends). See EnableResilience.
	res *Resilience
	// inflight tracks active sends by flow-table slot so channel failures
	// can tear down exactly the affected messages: inflight[flow.Index(id)]
	// is the pendingSend whose flow occupies that slot. Each pendingSend
	// records its full handle, so a slot recycled by the flow network is
	// never mistaken for a send this fabric still owns.
	inflight  []*pendingSend
	inflightN int
	// fpScratch is the reusable buffer attempt() assembles node-channel-
	// wrapped flow paths in; flow.Start copies paths into its arena, so
	// the buffer is free again as soon as Start returns.
	fpScratch []topo.ChannelID

	// Messages counts submitted messages; Bytes the submitted payload.
	Messages uint64
	Bytes    float64
	// Delivered counts messages whose last byte arrived; DeliveredBytes the
	// corresponding payload — the goodput numerator under faults, where
	// submitted and delivered traffic diverge.
	Delivered      uint64
	DeliveredBytes float64
	// TornDown counts in-flight flows killed by channel failures, Retries
	// the re-sends they (and unroutable attempts) triggered, and GiveUps
	// the messages abandoned after the retry budget ran out.
	TornDown uint64
	Retries  uint64
	GiveUps  uint64
	// Redispatched counts messages this fabric handed to a sibling plane
	// via Resilience.Redispatch instead of retrying locally.
	Redispatched uint64
}

// New builds a fabric over routed tables using the ob1 PML.
func New(eng *sim.Engine, t *route.Tables, p Params, seed uint64) *Fabric {
	f := &Fabric{
		Eng:       eng,
		G:         t.G,
		Tables:    t,
		Net:       flow.NewNetwork(eng, t.G),
		Params:    p,
		pml:       Ob1,
		threshold: core.DefaultThreshold,
		rng:       sim.NewRand(seed),
		paths:     make(map[int64][]topo.ChannelID),
		nodeChan0: -1,
	}
	nb := p.NodeBandwidth
	if nb == 0 {
		nb = DefaultNodeBandwidth
	}
	if nb > 0 {
		f.nodeChan0 = f.Net.AddNodeChannels(t.G.NumTerminals(), nb)
	}
	return f
}

// AttachTelemetry wires a collector into the fabric, its flow network and
// its engine. Call it before traffic starts; pass nil to detach. Counters
// are sampled on the flow network's rate-recompute events, message records
// and trace spans on the fabric's send/deliver path.
func (f *Fabric) AttachTelemetry(c *telemetry.Collector) {
	f.Tel = c
	if c == nil {
		f.Net.SetCounters(nil)
		return
	}
	f.Net.SetCounters(c.Chans)
	c.AttachEngine(f.Eng)
}

// FlushCounters forces the flow network's lazily-deferred counter
// integrals up to the current instant — the barrier to invoke before
// reading the attached collector's counter slices directly at a snapshot
// boundary (fault teardown, end-of-run, mid-run export). The collector's
// own accessors flush implicitly.
func (f *Fabric) FlushCounters() { f.Net.FlushCounters() }

// EnableBFO switches the fabric to the modified bfo PML for PARX tables on
// the given HyperX. threshold <= 0 selects the paper's 512-byte default.
func (f *Fabric) EnableBFO(hx *topo.HyperX, threshold int64) error {
	if f.Tables.LMC < core.LMC {
		return fmt.Errorf("fabric: bfo PML needs LMC >= %d, tables have %d", core.LMC, f.Tables.LMC)
	}
	f.pml = BFO
	f.hx = hx
	if threshold > 0 {
		f.threshold = threshold
	}
	f.quadrants = make([]core.Quadrant, hx.NumTerminals())
	for i, tm := range hx.Terminals() {
		f.quadrants[i] = core.QuadrantOfTerminal(hx, tm)
	}
	return nil
}

// PMLName reports the active messaging layer.
func (f *Fabric) PMLName() string {
	switch f.pml {
	case BFO:
		return "bfo"
	case adaptive:
		return "adaptive"
	default:
		return "ob1"
	}
}

// selectLID picks the destination LID for a message per the active PML.
func (f *Fabric) selectLID(src, dst topo.NodeID, size int64) route.LID {
	dstIdx := f.Tables.TermIndex(dst)
	switch f.pml {
	case Ob1:
		return f.Tables.BaseLID[dstIdx]
	case adaptive:
		return f.selectAdaptiveLID(src, dst, size)
	}
	sq := f.quadrants[f.Tables.TermIndex(src)]
	dq := f.quadrants[dstIdx]
	off := core.SelectLIDOffset(sq, dq, size, f.threshold, f.rng)
	return f.Tables.BaseLID[dstIdx] + route.LID(off)
}

// pathTo resolves and caches the routed path from src to lid.
func (f *Fabric) pathTo(src topo.NodeID, lid route.LID) ([]topo.ChannelID, error) {
	key := int64(f.Tables.TermIndex(src))*int64(f.Tables.MaxLID()+1) + int64(lid)
	if p, ok := f.paths[key]; ok {
		return p, nil
	}
	p, err := f.Tables.Path(src, lid)
	if err != nil {
		return nil, err
	}
	f.paths[key] = p
	return p, nil
}

// overhead returns the send-side software overhead for the active PML.
func (f *Fabric) overhead() sim.Duration {
	o := f.Params.SendOverhead
	if f.pml == BFO {
		o += f.Params.BFOPenalty
	}
	return o
}

// PathLatency sums the wire latencies along a path.
func (f *Fabric) PathLatency(p []topo.ChannelID) sim.Duration {
	var lat sim.Duration
	for _, c := range p {
		lat += f.G.Link(c).Latency
	}
	return lat
}

// Send transfers size bytes from terminal src to terminal dst and calls
// onDelivered when the last byte arrives. The time decomposes LogGP-style:
// send overhead, per-hop latency, then bandwidth-limited streaming through
// the flow network, then receive overhead. Intra-node (src == dst)
// messages cost only the overheads plus a memcpy term.
//
// Without resilience enabled an unroutable destination panics; with it, the
// message enters the bounded-retry loop and onDelivered may fire only after
// the subnet manager repairs the tables (or never, if the retry budget runs
// out — see Resilience.OnGiveUp).
func (f *Fabric) Send(src, dst topo.NodeID, size int64, onDelivered func(at sim.Time)) {
	f.Messages++
	f.Bytes += float64(size)
	rec := f.Tel.StartMsg(src, dst, size, f.Eng.Now())
	if src == dst {
		// Loopback through shared memory: overhead + copy at ~8 GB/s.
		d := f.overhead() + f.Params.RecvOverhead + sim.Duration(float64(size)/8e9)
		f.Eng.After(d, func(e *sim.Engine) {
			f.Delivered++
			f.DeliveredBytes += float64(size)
			f.Tel.MsgDelivered(rec, e.Now(), 0, true)
			onDelivered(e.Now())
		})
		return
	}
	f.attempt(&pendingSend{src: src, dst: dst, size: size, onDelivered: onDelivered, rec: rec})
}

// Probe returns the switch-hop count the active PML would use for a message
// of the given size (diagnostics and tests).
func (f *Fabric) Probe(src, dst topo.NodeID, size int64) (hops int, lid route.LID, err error) {
	lid = f.selectLID(src, dst, size)
	p, err := f.pathTo(src, lid)
	if err != nil {
		return 0, lid, err
	}
	return route.SwitchHops(p), lid, nil
}
