package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, or one region of the benchmark's own
// code that encloses such calls.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req"`    // request id, -1 outside the request loop
}

// tracer keeps the spans of one traced run in memory; they are written out
// when the run ends. A nil tracer records nothing, so the untraced code
// path is the same code with every span call a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.begin(name, parent, -1)
	err := fn()
	t.end(id)
	return err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the self time of every closed span in
// nanoseconds: its duration minus the part of its interval that its child
// spans cover (children of concurrent clients may overlap; their union
// counts once).
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		if kids := children[i]; len(kids) > 0 {
			iv := make([][2]int64, 0, len(kids))
			for _, k := range kids {
				c := t.spans[k]
				if c.End < 0 {
					continue
				}
				if lo, hi := max(c.Start, s.Start), min(c.End, s.End); hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			lo, hi := int64(-1), int64(-1)
			for _, v := range iv {
				if v[0] > hi {
					covered += hi - lo
					lo, hi = v[0], v[1]
				} else if v[1] > hi {
					hi = v[1]
				}
			}
			covered += hi - lo
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// printSelfTimes writes each layer's summed self time and, per span name,
// the count and median self time.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	layers := map[string]float64{}
	for name, xs := range self {
		names = append(names, name)
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += sum(xs)
	}
	sort.Strings(names)
	var ls []string
	for l := range layers {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	for _, l := range ls {
		fmt.Fprintf(w, "hdbench self-time layer=%s total_s=%.6f\n", l, layers[l]/1e9)
	}
	for _, name := range names {
		xs := self[name]
		fmt.Fprintf(w, "hdbench self-time span=%s count=%d median_us=%.3f total_s=%.6f\n",
			name, len(xs), quantile(xs, 0.5)/1e3, sum(xs)/1e9)
	}
}

// writeFile writes every span, one JSON object a line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
