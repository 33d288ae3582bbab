package route_test

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens")

const tablesGoldenFile = "testdata/tables_golden.txt"

// tableDigest hashes everything a routing engine decides: NumVL, every LFT
// entry (switch × LID, including NoChannel holes) and the SL of every
// (source terminal, assigned LID) pair.
func tableDigest(tb *route.Tables) uint64 {
	h := fnv.New64a()
	g := tb.G
	maxLID := tb.MaxLID()
	buf := binary.LittleEndian.AppendUint32(nil, uint32(tb.NumVL))
	h.Write(buf)
	for _, sw := range g.Switches() {
		buf = buf[:0]
		for lid := route.LID(0); lid <= maxLID; lid++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(tb.NextHop(sw, lid)))
		}
		h.Write(buf)
	}
	for _, src := range g.Terminals() {
		buf = buf[:0]
		for lid := route.LID(0); lid <= maxLID; lid++ {
			if tb.OwnerOf(lid) >= 0 {
				buf = append(buf, tb.SL(src, lid))
			}
		}
		h.Write(buf)
	}
	return h.Sum64()
}

func goldenHX(s, k []int, t int) *topo.HyperX {
	return topo.NewHyperX(topo.HyperXConfig{S: s, K: k, T: t, Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency})
}

// chainPrefixHX is a 6×4 HyperX with the first 10 links of a seeded
// connectivity-preserving failure chain down: enough missing in-line links
// that hxmin takes restricted two-hop escapes (the test asserts it does).
func chainPrefixHX(t *testing.T) *topo.HyperX {
	hx := goldenHX([]int{6, 4}, nil, 2)
	chain, err := topo.DegradeChain(hx.Graph, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range chain {
		hx.Links[id].Down = true
	}
	return hx
}

// escapes counts served pairs whose path is longer than the lattice
// distance between the two attachment switches, i.e. pairs that took a
// detour.
func escapes(tb *route.Tables) int {
	g := tb.G
	n := 0
	for _, src := range g.Terminals() {
		cs := g.Nodes[g.SwitchOf(src)].Coord
		for j, dst := range g.Terminals() {
			p, err := tb.Path(src, tb.BaseLID[j])
			if err != nil || p == nil {
				continue
			}
			cd := g.Nodes[g.SwitchOf(dst)].Coord
			dist := 0
			for d := range cs {
				if cs[d] != cd[d] {
					dist++
				}
			}
			if route.SwitchHops(p) > dist {
				n++
			}
		}
	}
	return n
}

type goldenCase struct {
	name  string
	build func(t *testing.T) *route.Tables
	check func(t *testing.T, tb *route.Tables)
}

func goldenCases() []goldenCase {
	hxmin := func(hx func(*testing.T) *topo.HyperX) func(*testing.T) *route.Tables {
		return func(t *testing.T) *route.Tables {
			tb, err := route.HXMin(hx(t), 0)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
	}
	hxnm := func(hx func(*testing.T) *topo.HyperX) func(*testing.T) *route.Tables {
		return func(t *testing.T) *route.Tables {
			tb, err := route.HXNonMin(hx(t), 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
	}
	hx12x8 := func(*testing.T) *topo.HyperX { return goldenHX([]int{12, 8}, nil, 32) }
	paperHX := func(*testing.T) *topo.HyperX { return topo.NewPaperHyperX(true, 1) }
	// Parallel links in both dimensions, with a few of them down, so the
	// lowest-(weight, channel ID) choice among live parallels decides.
	kHX := func(t *testing.T) *topo.HyperX {
		hx := goldenHX([]int{4, 3}, []int{2, 3}, 2)
		if _, err := topo.DegradeSwitchLinks(hx.Graph, 4, 3); err != nil {
			t.Fatal(err)
		}
		return hx
	}
	kIntact := func(*testing.T) *topo.HyperX { return goldenHX([]int{4, 3}, []int{2, 3}, 2) }
	return []goldenCase{
		{name: "hxmin/12x8-T32", build: hxmin(hx12x8)},
		{name: "hxnm/12x8-T32", build: hxnm(hx12x8)},
		{name: "hxmin/paper-degraded-s1", build: hxmin(paperHX)},
		{name: "hxnm/paper-degraded-s1", build: hxnm(paperHX)},
		{name: "hxmin/4x3-K2,3", build: hxmin(kIntact)},
		{name: "hxnm/4x3-K2,3", build: hxnm(kIntact)},
		{name: "hxmin/4x3-K2,3-degraded", build: hxmin(kHX)},
		{name: "hxnm/4x3-K2,3-degraded", build: hxnm(kHX)},
		{name: "hxmin/6x4-chain10", build: hxmin(chainPrefixHX), check: func(t *testing.T, tb *route.Tables) {
			if escapes(tb) == 0 {
				t.Error("no pair took a restricted escape; the chain prefix no longer exercises hxminEscape")
			}
		}},
		{name: "hxnm/6x4-chain10", build: hxnm(chainPrefixHX)},
		{name: "ftree/fig1-fattree", build: func(t *testing.T) *route.Tables {
			tb, err := route.FTree(topo.NewPaperFatTree(true, 1), 0)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}},
		{name: "dfsssp/fig1-hyperx", build: func(t *testing.T) *route.Tables {
			tb, err := route.DFSSSP(topo.NewPaperHyperX(true, 1).Graph, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}, check: func(t *testing.T, tb *route.Tables) {
			if tb.NumVL != 2 {
				t.Errorf("DFSSSP on the Fig. 1 HyperX uses %d VLs, want 2", tb.NumVL)
			}
		}},
		{name: "parx/fig1-hyperx", build: func(t *testing.T) *route.Tables {
			tb, err := core.PARX(topo.NewPaperHyperX(true, 1), core.Config{MaxVL: 8})
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}, check: func(t *testing.T, tb *route.Tables) {
			if tb.NumVL != 3 {
				t.Errorf("PARX on the Fig. 1 HyperX uses %d VLs, want 3", tb.NumVL)
			}
		}},
	}
}

func readTablesGolden(t *testing.T) map[string]string {
	f, err := os.Open(tablesGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTablesGolden pins the routing tables of every engine whose build the
// lane placer or the HyperX switch-link index touches: the FNV-64a digest
// of all LFT entries, all SLs and NumVL must match the committed golden
// exactly. Regenerate with -update only for an intended routing change.
func TestTablesGolden(t *testing.T) {
	cases := goldenCases()
	got := make([]string, len(cases))
	for i, c := range cases {
		tb := c.build(t)
		if c.check != nil {
			c.check(t, tb)
		}
		got[i] = fmt.Sprintf("%016x numvl=%d", tableDigest(tb), tb.NumVL)
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# name fnv64a(LFT, SL, NumVL) numvl — regenerate with go test -run TestTablesGolden -update\n")
		for i, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(tablesGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readTablesGolden(t)
	for i, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden entry", c.name)
			continue
		}
		if got[i] != w {
			t.Errorf("%s: tables digest %s, golden %s", c.name, got[i], w)
		}
	}
}
