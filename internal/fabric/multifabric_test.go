package fabric

import (
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// twoPlaneFixture builds a dual-plane fabric: two independent 4x4 HyperX
// graphs (same terminal count, separate channel spaces) on one engine.
func twoPlaneFixture(t *testing.T, policy SelectionPolicy) (*MultiFabric, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	var planes []*Fabric
	for i := 0; i < 2; i++ {
		hx := topo.NewHyperX(topo.HyperXConfig{
			S: []int{4, 4}, T: 2,
			Bandwidth: 1e9, Latency: 100 * sim.Nanosecond,
		})
		tb, err := route.SSSP(hx.Graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		planes = append(planes, New(eng, tb, DefaultParams(), uint64(i+1)))
	}
	mf, err := NewMulti(planes, []string{"a", "b"}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return mf, eng
}

func fixturePair(mf *MultiFabric) (topo.NodeID, topo.NodeID) {
	terms := mf.Plane(0).G.Terminals()
	return terms[0], terms[len(terms)-1]
}

func TestNewMultiRejectsMismatchedPlanes(t *testing.T) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: 1e9, Latency: 1e-7})
	tb, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	small := topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2}, T: 2, Bandwidth: 1e9, Latency: 1e-7})
	tbs, err := route.SSSP(small.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	if _, err := NewMulti(nil, nil, nil); err == nil {
		t.Error("NewMulti with no planes succeeded")
	}
	if _, err := NewMulti([]*Fabric{
		New(eng, tb, DefaultParams(), 1),
		New(sim.NewEngine(), tb, DefaultParams(), 2),
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "different engine") {
		t.Errorf("cross-engine planes: err = %v", err)
	}
	if _, err := NewMulti([]*Fabric{
		New(eng, tb, DefaultParams(), 1),
		New(eng, tbs, DefaultParams(), 2),
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "same nodes") {
		t.Errorf("mismatched terminal counts: err = %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	good := []struct {
		spec string
		name string
	}{
		{"", "single"},
		{"single", "single"},
		{"single:1", "single"},
		{"sizesplit", "sizesplit"},
		{"sizesplit:4096", "sizesplit"},
		{"roundrobin", "roundrobin"},
		{"rr", "roundrobin"},
		{"striped", "striped"},
		{"failover", "failover"},
		{"failover:1", "failover"},
	}
	for _, tc := range good {
		pol, err := ParsePolicy(tc.spec, 2)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.spec, err)
			continue
		}
		if pol.Name() != tc.name {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", tc.spec, pol.Name(), tc.name)
		}
	}
	for _, spec := range []string{"bogus", "single:5", "single:x", "failover:2", "sizesplit:zero"} {
		if _, err := ParsePolicy(spec, 2); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", spec)
		}
	}
}

func TestSinglePlanePolicyStaysOnOnePlane(t *testing.T) {
	mf, eng := twoPlaneFixture(t, SinglePlane{Plane: 1})
	src, dst := fixturePair(mf)
	for i := 0; i < 8; i++ {
		mf.Send(src, dst, 1024, nil)
	}
	eng.Run()
	if mf.PlaneMessages[0] != 0 || mf.PlaneMessages[1] != 8 {
		t.Errorf("plane messages = %v, want [0 8]", mf.PlaneMessages)
	}
	if mf.Delivered != 8 {
		t.Errorf("delivered %d of 8", mf.Delivered)
	}
}

func TestRoundRobinAlternatesPlanes(t *testing.T) {
	mf, eng := twoPlaneFixture(t, &RoundRobin{})
	src, dst := fixturePair(mf)
	for i := 0; i < 8; i++ {
		mf.Send(src, dst, 1024, nil)
	}
	eng.Run()
	if mf.PlaneMessages[0] != 4 || mf.PlaneMessages[1] != 4 {
		t.Errorf("plane messages = %v, want [4 4]", mf.PlaneMessages)
	}
}

func TestStripedIsDeterministicPerPair(t *testing.T) {
	mf, eng := twoPlaneFixture(t, Striped{})
	terms := mf.Plane(0).G.Terminals()
	// Same pair always lands on the same plane; pairs of different index
	// parity land on different planes.
	for i := 0; i < 4; i++ {
		mf.Send(terms[0], terms[1], 64, nil)
		mf.Send(terms[0], terms[2], 64, nil)
	}
	eng.Run()
	if mf.PlaneMessages[0] != 4 || mf.PlaneMessages[1] != 4 {
		t.Errorf("striped plane messages = %v, want [4 4]", mf.PlaneMessages)
	}
	if mf.Delivered != mf.Messages {
		t.Errorf("delivered %d of %d", mf.Delivered, mf.Messages)
	}
}

func TestSizeSplitRoutesByThreshold(t *testing.T) {
	mf, eng := twoPlaneFixture(t, &SizeSplit{Threshold: 4096, Small: 1, Large: 0})
	src, dst := fixturePair(mf)
	mf.Send(src, dst, 4095, nil) // < threshold: small plane
	mf.Send(src, dst, 4096, nil) // >= threshold: large plane
	mf.Send(src, dst, 1<<20, nil)
	eng.Run()
	if mf.PlaneMessages[1] != 1 || mf.PlaneMessages[0] != 2 {
		t.Errorf("plane messages = %v, want small plane 1, large plane 2", mf.PlaneMessages)
	}
}

func TestFailoverSkipsUnhealthyPlane(t *testing.T) {
	mf, eng := twoPlaneFixture(t, &Failover{})
	src, dst := fixturePair(mf)
	mf.Send(src, dst, 1024, nil)
	mf.SetPlaneHealth(0, false)
	mf.Send(src, dst, 1024, nil)
	mf.SetPlaneHealth(0, true)
	mf.Send(src, dst, 1024, nil)
	eng.Run()
	if mf.PlaneMessages[0] != 2 || mf.PlaneMessages[1] != 1 {
		t.Errorf("plane messages = %v, want [2 1]", mf.PlaneMessages)
	}
	if mf.Delivered != 3 {
		t.Errorf("delivered %d of 3", mf.Delivered)
	}
}
