// Command hdbench is the repository benchmark. One invocation runs one
// named workload with a given seed for a given number of seconds and prints,
// as the last line of its standard output, one JSON object with the run's
// attempted and failed operation counts and its metrics: the end-to-end
// metrics on an untraced run (--trace 0), the per-layer metrics on a traced
// run (--trace 1).
//
//	hdbench --workload serve-isolet-b8 --seed 1 --seconds 10 --trace 0
//	hdbench compare <dir-a> <dir-b>
//
// The compare mode reads two directories of saved run outputs and reports,
// per workload and metric, each side's median and quartiles and whether the
// difference exceeds the metric's bound in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one named benchmark scenario.
type workload struct {
	name string
	// params describes the workload's inputs for the run header.
	params func() string
	// run performs set-up, the measured phase and the checks.
	run func(rc *runCtx) error
}

func workloads() []workload {
	return []workload{
		{name: "serve-isolet-b8", params: isoletServing.String, run: isoletServing.run},
		{name: "serve-bin-b1", params: binServing.String, run: binServing.run},
		{name: "train-isolet", params: isoletTraining.String, run: isoletTraining.run},
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("hdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	var names []string
	for _, cand := range workloads() {
		names = append(names, cand.name)
		if cand.name == *name {
			c := cand
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "hdbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "hdbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	rc := &runCtx{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		out:     stdout,
		metrics: map[string]metric{},
	}
	if *traced == 1 {
		rc.tr = newTracer()
	}
	fmt.Fprintln(stdout, hostLine())
	fmt.Fprintf(stdout, "hdbench run workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "hdbench params %s\n", w.params())
	if err := w.run(rc); err != nil {
		fmt.Fprintf(stderr, "hdbench: %s: %v\n", w.name, err)
		return 1
	}
	if rc.tr != nil {
		path := fmt.Sprintf(".bench_build/trace-%s.json", w.name)
		if err := rc.tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "hdbench: %v\n", err)
			return 1
		}
		rc.tr.printSelfTimes(stdout)
		fmt.Fprintf(stdout, "hdbench trace spans=%d file=%s\n", rc.tr.len(), path)
	}
	for _, note := range rc.chk.notes {
		fmt.Fprintf(stdout, "hdbench failed-op %s\n", note)
	}
	line, err := json.Marshal(result{
		Correct:   rc.chk.failed == 0,
		Attempted: rc.chk.attempted,
		Failed:    rc.chk.failed,
		Metrics:   rc.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "hdbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's settings and collects what it reports.
type runCtx struct {
	seed    uint64
	measure time.Duration
	out     io.Writer
	tr      *tracer // nil on untraced runs
	corrupt corruption

	chk     checks
	metrics map[string]metric
}

// traced reports whether this is the traced (per-layer) run.
func (rc *runCtx) traced() bool { return rc.tr != nil }

func (rc *runCtx) report(name string, value float64, unit string) {
	rc.metrics[name] = metric{Value: value, Unit: unit}
}

// logf writes one informational line of the run's output.
func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.out, "hdbench "+format+"\n", args...)
}

// corruption selects one deliberately corrupted input a check sees. Only
// the self-tests set it; it proves that each check can fail.
type corruption struct {
	flipLabel   bool // one served label flipped before its check
	classWord   bool // one packed class word of the served bipolar model changed
	shiftTiming bool // one served simulated timing shifted by a nanosecond
	encodedRow  bool // one device-encoded row pushed outside its error bound
}

// checks counts checked operations and the ones that failed.
type checks struct {
	attempted, failed int
	notes             []string // the first few failures, for the log
}

// record counts one operation, failed unless ok, and returns ok. The
// caller adds a note for a failed one; hot loops thus format nothing.
func (c *checks) record(ok bool) bool {
	c.attempted++
	if !ok {
		c.failed++
	}
	return ok
}

// note keeps the description of a failed operation for the log.
func (c *checks) note(format string, args ...any) {
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// expect records one operation with its note should it fail.
func (c *checks) expect(ok bool, format string, args ...any) {
	if !c.record(ok) {
		c.note(format, args...)
	}
}

// merge adds another tally (a client's) into c.
func (c *checks) merge(o *checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 5 {
			c.notes = append(c.notes, n)
		}
	}
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
