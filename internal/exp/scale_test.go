package exp

import (
	"os"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
)

// A scaled-down endurance run that exercises the whole RunScale loop —
// windowed closed-loop traffic, stride generator, drain check — in well
// under a second.
func TestRunScaleSmall(t *testing.T) {
	var ticks int
	res, err := RunScale(ScaleSpec{
		S: []int{4, 4}, T: 8,
		Window: 32, Messages: 5000, MsgBytes: 4096,
		Strides: 4, Seed: 1,
		Progress:      func(uint64, sim.Time, uint64) { ticks++ },
		ProgressEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals != 128 || res.Switches != 16 {
		t.Errorf("built %d terminals / %d switches, want 128 / 16", res.Terminals, res.Switches)
	}
	if res.Delivered != 5000 {
		t.Errorf("Delivered = %d, want 5000", res.Delivered)
	}
	if res.DeliveredBytes != 5000*4096 {
		t.Errorf("DeliveredBytes = %g, want %d", res.DeliveredBytes, 5000*4096)
	}
	if res.SimElapsed <= 0 {
		t.Errorf("SimElapsed = %v, want > 0", res.SimElapsed)
	}
	if res.Recomputes == 0 {
		t.Error("no flow recomputes recorded")
	}
	if ticks < 5 {
		t.Errorf("progress fired %d times, want >= 5", ticks)
	}
}

// TestScaleStrides pins the stride-generator contract: distinct offsets
// in [1, n-1] (the old modular formula emitted duplicates when Strides
// was large relative to n), clamping to the n-1 distinct offsets that
// exist, and a hard error on degenerate lattices instead of a self-send
// patch loop.
func TestScaleStrides(t *testing.T) {
	cases := []struct{ n, count, wantLen int }{
		{8, 20, 7},   // clamp: only 7 distinct non-self offsets exist
		{8, 7, 7},    // exact fit
		{128, 4, 4},  // spread across the index space
		{128, 8, 8},  // the default count at small n
		{2, 8, 1},    // minimum viable lattice
		{342, 0, 1},  // count floor
		{342, -3, 1}, // count floor on nonsense input
	}
	for _, c := range cases {
		strides, err := scaleStrides(c.n, c.count)
		if err != nil {
			t.Fatalf("scaleStrides(%d, %d): %v", c.n, c.count, err)
		}
		if len(strides) != c.wantLen {
			t.Errorf("scaleStrides(%d, %d) emitted %d strides, want %d",
				c.n, c.count, len(strides), c.wantLen)
		}
		seen := map[int]bool{}
		for _, s := range strides {
			if s < 1 || s > c.n-1 {
				t.Errorf("scaleStrides(%d, %d): stride %d outside [1, %d]", c.n, c.count, s, c.n-1)
			}
			if seen[s] {
				t.Errorf("scaleStrides(%d, %d): duplicate stride %d", c.n, c.count, s)
			}
			seen[s] = true
		}
	}
	for _, n := range []int{0, 1} {
		if _, err := scaleStrides(n, 8); err == nil {
			t.Errorf("scaleStrides(%d, 8): degenerate lattice accepted", n)
		}
	}
}

// TestScaleProgressNoDuplicateFinal checks the progress contract: when
// the budget is a multiple of ProgressEvery the last delivery's callback
// IS the final report, and the post-drain call must not repeat it.
func TestScaleProgressNoDuplicateFinal(t *testing.T) {
	run := func(messages uint64) []uint64 {
		var calls []uint64
		_, err := RunScale(ScaleSpec{
			S: []int{2, 2}, T: 2,
			Window: 8, Messages: messages, MsgBytes: 4096,
			Strides: 4, Seed: 1,
			Progress:      func(d uint64, _ sim.Time, _ uint64) { calls = append(calls, d) },
			ProgressEvery: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	// Budget divides ProgressEvery: exactly Messages/ProgressEvery calls,
	// the last one already carrying the final total.
	calls := run(2000)
	want := []uint64{500, 1000, 1500, 2000}
	if len(calls) != len(want) {
		t.Fatalf("progress calls %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("progress calls %v, want %v", calls, want)
		}
	}
	// Budget leaves a tail: one extra final call with the drain total.
	calls = run(2200)
	if len(calls) != 5 || calls[4] != 2200 {
		t.Fatalf("progress calls %v, want [500 1000 1500 2000 2200]", calls)
	}
}

func TestRunScaleRejectsUnknownRouting(t *testing.T) {
	if _, err := RunScale(ScaleSpec{S: []int{2, 2}, T: 2, Routing: "parx", Messages: 1}); err == nil {
		t.Fatal("unknown routing accepted")
	}
}

// The acceptance-criteria configuration: a 12x8 HyperX at T=342 (32832
// terminals) delivering a million messages. Minutes of CPU, so gated.
func TestRunScale32kTerminals(t *testing.T) {
	if os.Getenv("T2HX_SCALE") == "" {
		t.Skip("set T2HX_SCALE=1 to run the 32k-terminal endurance configuration")
	}
	res, err := RunScale(ScaleSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals < 32768 {
		t.Errorf("Terminals = %d, want >= 32768", res.Terminals)
	}
	if res.Delivered < 1_000_000 {
		t.Errorf("Delivered = %d, want >= 1e6", res.Delivered)
	}
	t.Logf("terminals=%d delivered=%d sim=%.3fs build=%v run=%v recomputes=%d peakRSS=%.1f MiB",
		res.Terminals, res.Delivered, float64(res.SimElapsed), res.BuildWall, res.RunWall,
		res.Recomputes, float64(res.PeakRSSBytes)/(1<<20))
}
