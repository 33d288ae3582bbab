package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseBenchStripsCPUSuffix checks that the "-<GOMAXPROCS>" suffix
// go test adds on multi-CPU hosts is dropped from the stored name, while
// a name without one, or with digits that are not a suffix, is kept.
func TestParseBenchStripsCPUSuffix(t *testing.T) {
	for line, want := range map[string]string{
		"BenchmarkSweepParallel/j=8-2   5   123456 ns/op   40.5 cells/s": "BenchmarkSweepParallel/j=8",
		"BenchmarkTablesBuild/hxmin/cold-16   5   99 ns/op":              "BenchmarkTablesBuild/hxmin/cold",
		"BenchmarkSweepParallel/j=8   5   123456 ns/op":                  "BenchmarkSweepParallel/j=8",
		"BenchmarkFlowChurn/local/flows=1000   5   10 ns/op":             "BenchmarkFlowChurn/local/flows=1000",
	} {
		e, ok := parseBench(line)
		if !ok {
			t.Fatalf("%q did not parse", line)
		}
		if e.Name != want {
			t.Errorf("%q parsed to name %q, want %q", line, e.Name, want)
		}
	}
}

// TestCompareMatchesAcrossCPUCounts compares a 2-CPU run against a
// baseline recorded without a suffix: the rows must be compared, not
// listed as new in the run and missing from the baseline.
func TestCompareMatchesAcrossCPUCounts(t *testing.T) {
	base := Doc{Benchmarks: []Entry{{
		Name:       "BenchmarkSweepParallel/j=8",
		Iterations: 5,
		Metrics:    map[string]float64{"ns/op": 1000, "cells/s": 50},
	}}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e, ok := parseBench("BenchmarkSweepParallel/j=8-2   5   1010 ns/op   49.5 cells/s")
	if !ok {
		t.Fatal("run line did not parse")
	}
	var out strings.Builder
	compareBaseline(&out, Doc{Benchmarks: []Entry{e}}, path, 10, nil)
	got := out.String()
	for _, bad := range []string{"new ", "missing "} {
		if strings.Contains(got, bad) {
			t.Errorf("comparison reports %q:\n%s", strings.TrimSpace(bad), got)
		}
	}
	for _, unit := range []string{" ns/op", " cells/s"} {
		found := false
		for _, l := range strings.Split(got, "\n") {
			found = found || strings.HasPrefix(l, "  ok") && strings.Contains(l, unit)
		}
		if !found {
			t.Errorf("no ok row for%s:\n%s", unit, got)
		}
	}
}
