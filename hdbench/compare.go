package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet is a directory of saved run outputs, grouped by workload.
type runSet struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

// readRuns reads every regular file of dir as one run's standard output:
// the workload comes from its "hdbench run" line, the figures from its
// last line.
func readRuns(dir string) (*runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		wl, res, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if rs.values[wl] == nil {
			rs.values[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			rs.values[wl][name] = append(rs.values[wl][name], m.Value)
		}
		rs.attempted[wl] += res.Attempted
		rs.failed[wl] += res.Failed
	}
	return rs, nil
}

func readRun(path string) (string, *result, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	workload, last := "", ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "hdbench run "); ok {
			for _, field := range strings.Fields(rest) {
				if v, ok := strings.CutPrefix(field, "workload="); ok {
					workload = v
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || workload == "" {
		return "", nil, fmt.Errorf("%s: not a benchmark run output", path)
	}
	return workload, &res, nil
}

// quartiles returns the three cut points of values as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), and
// the median as statistics.median does.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n%2 == 1 {
		med = xs[n/2]
	} else {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	if n < 2 {
		return xs[0], med, xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

// compareMain reports, for each workload and metric, both sides' medians
// and quartiles, the spread of each side (interquartile distance over
// median) and the change of the median; an end-to-end metric whose median
// worsens by more than its bound is marked EXCEEDS.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: hdbench compare [-bench BENCHMARK.json] <dir-a> <dir-b>")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "hdbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "hdbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "hdbench compare: %v\n", err)
		return 2
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "hdbench compare: %v\n", err)
		return 2
	}
	type row struct {
		name, unit, better string
		bound              float64 // NaN for per-layer metrics
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Unit, m.Better, math.NaN()})
	}
	workloads := map[string]bool{}
	for w := range a.values {
		workloads[w] = true
	}
	for w := range b.values {
		workloads[w] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	exceeded := 0
	fmt.Fprintf(stdout, "%-16s %-28s %-8s %5s %14s %14s %14s %7s %5s %14s %14s %14s %7s %9s %7s %s\n",
		"workload", "metric", "unit", "runsA", "q1A", "medianA", "q3A", "spreadA",
		"runsB", "q1B", "medianB", "q3B", "spreadB", "change", "bound", "verdict")
	for _, w := range names {
		for _, r := range rows {
			va, vb := a.values[w][r.name], b.values[w][r.name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			change := (mb - ma) / math.Abs(ma)
			worse := change > 0
			if r.better == "higher" {
				worse = change < 0
			}
			verdict, bound := "", "-"
			if !math.IsNaN(r.bound) {
				bound = fmt.Sprintf("%.3f", r.bound)
				verdict = "within"
				if worse && math.Abs(change) > r.bound {
					verdict = "EXCEEDS"
					exceeded++
				}
			}
			fmt.Fprintf(stdout, "%-16s %-28s %-8s %5d %14.6g %14.6g %14.6g %7.4f %5d %14.6g %14.6g %14.6g %7.4f %+9.4f %7s %s\n",
				w, r.name, r.unit, len(va), q1a, ma, q3a, (q3a-q1a)/math.Abs(ma),
				len(vb), q1b, mb, q3b, (q3b-q1b)/math.Abs(mb), change, bound, verdict)
		}
		fmt.Fprintf(stdout, "%-16s failed/attempted A=%d/%d B=%d/%d\n", w, a.failed[w], a.attempted[w], b.failed[w], b.attempted[w])
	}
	fmt.Fprintf(stdout, "end-to-end medians beyond their bound: %d\n", exceeded)
	return 0
}
