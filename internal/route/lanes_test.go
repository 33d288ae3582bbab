package route_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// A lane-budget overflow names the first path that fit no lane and the
// number of paths the pass walks, in the fixed (source, destination, LID)
// order. The lane passes stream their paths and keep walking past the
// failure only to count; these messages were recorded when the passes
// still materialized every path before layering, and the LMC=2 and PARX
// cases before AssignVLs placed each (source switch, LID) path only once,
// so a failure after skipped repeats still reports the terminal-pair
// index and total.
func TestLaneOverflowReportsFailingPath(t *testing.T) {
	hx := goldenHX([]int{4, 4}, nil, 2)
	hxT3 := goldenHX([]int{4, 4}, nil, 3)
	cases := []struct {
		name  string
		build func() (*route.Tables, error)
		want  string
	}{
		{"dfsssp/4x4-T2", func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 1) },
			"route: dfsssp needs more than 1 virtual lanes (failed at path 620 of 992)"},
		{"dfsssp/4x4-T2-lmc1", func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 1, 1) },
			"route: dfsssp needs more than 1 virtual lanes (failed at path 620 of 1984)"},
		{"dfsssp/4x4-T3-lmc2", func() (*route.Tables, error) { return route.DFSSSP(hxT3.Graph, 2, 1) },
			"route: dfsssp needs more than 1 virtual lanes (failed at path 2820 of 9024)"},
		{"hxnm/6x4-chain10", func() (*route.Tables, error) { return route.HXNonMin(chainPrefixHX(t), 0, 1) },
			"route: hxnm needs more than 1 virtual lanes (failed at path 1036 of 1128)"},
		// PARX needs 3 lanes on the Fig. 1 HyperX (TestTablesGolden).
		{"parx/fig1-hyperx", func() (*route.Tables, error) {
			return core.PARX(topo.NewPaperHyperX(true, 1), core.Config{MaxVL: 2})
		}, "route: parx needs more than 2 virtual lanes (failed at path 1166133 of 1803648)"},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestAssignVLsMatchesPathListOracle checks AssignVLs, which places each
// (source switch, LID) path once, against AssignLayers fed the full
// per-terminal path list in the same (source, destination, LID) order with
// no memo. On random small HyperX shapes, intact or with a failure-chain
// prefix down, every SL, NumVL and the failing path index must agree.
func TestAssignVLsMatchesPathListOracle(t *testing.T) {
	engines := []struct {
		name  string
		build func(g *topo.Graph, lmc uint8, maxVL int) (*route.Tables, error)
	}{
		{"dfsssp", route.DFSSSP},
		{"lash", route.LASH},
	}
	rng := rand.New(rand.NewPCG(16, 7))
	overflows, placed := 0, 0
	for i := 0; i < 24; i++ {
		s := []int{2 + rng.IntN(4), 2 + rng.IntN(3)}
		T := 2 + rng.IntN(2)
		lmc := uint8(rng.IntN(3))
		maxVL := []int{1, 2, 8}[rng.IntN(3)]
		down := 0
		if rng.IntN(2) == 0 {
			down = 1 + rng.IntN(4)
		}
		hx := goldenHX(s, nil, T)
		if down > 0 {
			chain, err := topo.DegradeChain(hx.Graph, down, uint64(i))
			if err != nil && !errors.Is(err, topo.ErrDegradeShortfall) {
				t.Fatal(err)
			}
			down = len(chain)
			for _, id := range chain {
				hx.Links[id].Down = true
			}
		}
		for _, e := range engines {
			name := fmt.Sprintf("%s/%dx%d-T%d-down%d-lmc%d-vl%d", e.name, s[0], s[1], T, down, lmc, maxVL)
			t.Run(name, func(t *testing.T) {
				// The LFTs do not depend on the lane budget, so a roomy
				// build supplies the paths to materialize.
				lfts, err := e.build(hx.Graph, lmc, 16)
				if err != nil {
					t.Fatal(err)
				}
				type pair struct {
					src topo.NodeID
					lid route.LID
				}
				var pairs []pair
				var paths [][]topo.ChannelID
				terms := hx.Graph.Terminals()
				for _, src := range terms {
					if hx.Graph.SwitchOf(src) < 0 {
						continue
					}
					for di, dst := range terms {
						if dst == src || hx.Graph.SwitchOf(dst) < 0 {
							continue
						}
						for off := 0; off < 1<<lmc; off++ {
							lid := lfts.BaseLID[di] + route.LID(off)
							p, err := lfts.Path(src, lid)
							if err != nil {
								t.Fatal(err)
							}
							pairs = append(pairs, pair{src, lid})
							paths = append(paths, p)
						}
					}
				}
				want := make([]int, len(paths))
				lanes, failed := route.AssignLayers(hx.Graph, paths, maxVL, func(i, vl int) { want[i] = vl })

				tb, err := e.build(hx.Graph, lmc, maxVL)
				if failed >= 0 {
					msg := fmt.Sprintf("route: %s needs more than %d virtual lanes (failed at path %d of %d)",
						e.name, maxVL, failed, len(paths))
					if err == nil || err.Error() != msg {
						t.Fatalf("got error %v, want %q", err, msg)
					}
					overflows++
					return
				}
				placed++
				if err != nil {
					t.Fatal(err)
				}
				if tb.NumVL != lanes {
					t.Errorf("NumVL = %d, oracle %d", tb.NumVL, lanes)
				}
				for i, pr := range pairs {
					if got := int(tb.SL(pr.src, pr.lid)); got != want[i] {
						t.Fatalf("SL(%d, LID %d) = %d, oracle %d", pr.src, pr.lid, got, want[i])
					}
				}
			})
		}
	}
	// Both outcomes must be covered, or the oracle pins half the contract.
	if overflows == 0 || placed == 0 {
		t.Errorf("%d overflowing and %d placed instances; want both", overflows, placed)
	}
}
