// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document, so benchmark baselines can be committed and
// diffed across PRs. Custom b.ReportMetric units are kept alongside
// ns/op, B/op and allocs/op in each benchmark's metric map.
//
// Usage:
//
//	go test -run xxx -bench . -benchtime 1x . | benchjson -out BENCH_$(date +%F).json
//
// With -baseline it additionally compares the run's ns/op against a
// previously committed document and warns on hot-path regressions beyond
// -warn percent. The comparison is advisory (exit status stays 0):
// single-iteration benchmarks are too noisy to gate a merge on, but the
// warning in the CI log flags what to re-measure properly.
//
//	go test -run xxx -bench . -benchtime 1x . | benchjson -baseline BENCH_2026-08-06.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the exported document: the run's environment header plus every
// benchmark line, in input order.
type Doc struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	Pkg        string  `json:"pkg,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to compare ns/op against (warn-only)")
	warnPct := flag.Float64("warn", 10, "with -baseline: regression percentage that triggers a warning")
	filter := flag.String("filter", "", "regexp over benchmark names; non-matches are dropped from the document and the baseline comparison")
	flag.Parse()

	var keep *regexp.Regexp
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fatal(fmt.Errorf("bad -filter: %w", err))
		}
		keep = re
	}

	doc := Doc{Benchmarks: []Entry{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo the input so the command can sit mid-pipeline.
		fmt.Fprintln(os.Stderr, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBench(line); ok && (keep == nil || keep.MatchString(e.Name)) {
				doc.Benchmarks = append(doc.Benchmarks, e)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}

	if *baseline != "" {
		compareBaseline(os.Stderr, doc, *baseline, *warnPct, keep)
	}
}

// compareBaseline diffs ns/op (lower is better) and every "/s"-suffixed
// throughput metric (higher is better, e.g. the solver bench's flows/s)
// per benchmark name against a committed document and prints the movers
// to w. Regressions past warnPct get a WARNING prefix; benchmarks
// present on only one side are listed so a renamed hot path doesn't
// silently drop out of the comparison.
func compareBaseline(w io.Writer, cur Doc, path string, warnPct float64, keep *regexp.Regexp) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", path, err))
	}
	baseMet := make(map[string]map[string]float64, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		// The -filter narrows the baseline too, so a partial run doesn't
		// report every out-of-scope benchmark as "missing".
		if keep == nil || keep.MatchString(e.Name) {
			baseMet[e.Name] = e.Metrics
		}
	}
	fmt.Fprintf(w, "\nbenchjson: comparing against %s (warn at %.0f%%)\n", path, warnPct)
	var regressions int
	for _, e := range cur.Benchmarks {
		bm, ok := baseMet[e.Name]
		delete(baseMet, e.Name)
		if !ok {
			if v, has := e.Metrics["ns/op"]; has {
				fmt.Fprintf(w, "  new       %-50s %14.0f ns/op (no baseline)\n", e.Name, v)
			}
			continue
		}
		for _, unit := range compareUnits(e.Metrics) {
			v, b := e.Metrics[unit], bm[unit]
			if b <= 0 {
				continue
			}
			// For time-per-op an increase regresses; for throughput a
			// decrease does. Normalize so positive pct always means worse.
			pct := 100 * (v/b - 1)
			if strings.HasSuffix(unit, "/s") {
				pct = -pct
			}
			switch {
			case pct > warnPct:
				regressions++
				fmt.Fprintf(w, "  WARNING   %-50s %14.1f %s, %.1f%% worse than baseline %.1f\n",
					e.Name, v, unit, pct, b)
			default:
				fmt.Fprintf(w, "  ok        %-50s %14.1f %s, %+.1f%% vs baseline\n",
					e.Name, v, unit, -pct)
			}
		}
	}
	for name, bm := range baseMet {
		if b, ok := bm["ns/op"]; ok {
			fmt.Fprintf(w, "  missing   %-50s baseline %14.0f ns/op, absent from this run\n", name, b)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) regressed past +%.0f%% — re-measure with a longer -benchtime before trusting this\n",
			regressions, warnPct)
	}
}

// compareUnits lists the comparable metrics of one entry: ns/op, B/op and
// allocs/op (all lower-is-better) plus any throughput ("/s") metrics, in a
// deterministic order.
func compareUnits(m map[string]float64) []string {
	units := make([]string, 0, 4)
	if _, ok := m["ns/op"]; ok {
		units = append(units, "ns/op")
	}
	if _, ok := m["B/op"]; ok {
		units = append(units, "B/op")
	}
	if _, ok := m["allocs/op"]; ok {
		units = append(units, "allocs/op")
	}
	var th []string
	for u := range m {
		if strings.HasSuffix(u, "/s") {
			th = append(th, u)
		}
	}
	sort.Strings(th)
	return append(units, th...)
}

// cpuSuffix is the "-<GOMAXPROCS>" suffix go test appends to benchmark
// names when GOMAXPROCS > 1. Names are stored without it, so a run on a
// host with a different CPU count still matches the baseline's rows.
var cpuSuffix = regexp.MustCompile(`-[0-9]+$`)

// parseBench decodes one result line: name (CPU suffix stripped),
// iteration count, then value/unit pairs ("13827812 ns/op 5.0
// %PARX-recovery").
func parseBench(line string) (Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: cpuSuffix.ReplaceAllString(f[0], ""), Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		e.Metrics[f[i+1]] = v
	}
	return e, len(e.Metrics) > 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
