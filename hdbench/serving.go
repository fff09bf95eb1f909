package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// servingWorkload is a closed loop of clients against serve.Server: each
// client submits its next request when the previous one returns. Pacing is
// off, there are no faults, the queue is unbounded and no request has a
// deadline, so nothing is shed.
type servingWorkload struct {
	name      string
	spec      string // catalog dataset whose shape the inputs take
	dim       int
	trainRows int // rows the served model is trained on
	poolRows  int // held-out rows the clients submit, round robin
	epochs    int
	fleet     string
	maxBatch  int
	clients   int
	warmup    int  // requests per client before the timer starts
	binary    bool // serve the bipolar form on bin workers
	maxRate   int  // request rate bound for sizing the latency buffers
	// minFloatAgree is the share of served labels that must match the
	// float classifier (int8 serving only; Fig. 7: quantized ≈ float).
	minFloatAgree float64
}

var isoletServing = &servingWorkload{
	name: "serve-isolet-b8", spec: "ISOLET", dim: 10000,
	trainRows: 260, poolRows: 256, epochs: 5,
	fleet: "tpu=2", maxBatch: 8, clients: 16, warmup: 4,
	maxRate: 2000, minFloatAgree: 0.9,
}

var binServing = &servingWorkload{
	name: "serve-bin-b1", spec: "PAMAP2", dim: 1024,
	trainRows: 2048, poolRows: 512, epochs: 20,
	fleet: "bin=2", maxBatch: 1, clients: 4, warmup: 1000,
	binary: true, maxRate: 200000,
}

func (w *servingWorkload) String() string {
	spec, _ := dataset.CatalogSpec(w.spec)
	return fmt.Sprintf("spec=%s features=%d classes=%d dim=%d train_rows=%d pool_rows=%d epochs=%d "+
		"fleet=%s max_batch=%d batch_window=0 clients=%d loop=closed warmup_per_client=%d setups=%d "+
		"queue=unbounded deadline=none pacing=off faults=none",
		w.spec, spec.Features, spec.Classes, w.dim, w.trainRows, w.poolRows, w.epochs,
		w.fleet, w.maxBatch, w.clients, w.warmup, setupRepeats)
}

// servingSetup is everything one set-up builds.
type servingSetup struct {
	train, pool *dataset.Dataset
	model       *hdc.Model
	bm          *hdc.BipolarModel // binary workloads only
	cm          *edgetpu.CompiledModel
	srv         *serve.Server
	updates     int // class-matrix updates while training the served model
}

func (s *servingSetup) close() { s.srv.Close() }

// setup generates the data, trains the served model on the host, compiles
// it, starts the server and warms it up. With a tracer, each call into the
// program is a span under parent.
func (w *servingWorkload) setup(rc *runCtx, parent int) (*servingSetup, error) {
	tr := rc.tr
	var ds *dataset.Dataset
	if err := tr.do("dataset.generate", parent, func() (err error) {
		ds, err = generate(w.spec, w.trainRows+w.poolRows, rc.seed)
		return err
	}); err != nil {
		return nil, err
	}
	s := &servingSetup{train: split(ds, 0, w.trainRows), pool: split(ds, w.trainRows, w.trainRows+w.poolRows)}
	enc := hdc.NewEncoder(ds.Features(), w.dim, true, encoderRNG(rc.seed))
	var encoded *tensor.Tensor
	tr.do("hdc.encode_host", parent, func() error { encoded = enc.EncodeBatch(s.train.X); return nil })
	s.model = hdc.NewModel(enc, ds.Classes)
	shuffle := shuffleRNG(rc.seed)
	for e := 0; e < w.epochs; e++ {
		var st *hdc.TrainStats
		if err := tr.do("hdc.fit_epoch", parent, func() (err error) {
			st, err = s.model.FitEncoded(encoded, s.train.Y, nil, nil, 1, 1, shuffle)
			return err
		}); err != nil {
			return nil, err
		}
		s.updates += st.TotalUpdates()
	}
	if w.binary {
		tr.do("hdc.binarize", parent, func() error { s.bm = s.model.Binarize(); return nil })
		if rc.corrupt.classWord {
			s.bm.Words[0][0] ^= 1
		}
	}
	p := pipeline.EdgeTPU()
	if err := tr.do("pipeline.compile", parent, func() (err error) {
		s.cm, err = pipeline.CompileInference(p, s.model, s.train, w.maxBatch)
		return err
	}); err != nil {
		return nil, err
	}
	fleet, err := serve.ParseFleet(w.fleet)
	if err != nil {
		return nil, err
	}
	if err := tr.do("serve.new", parent, func() (err error) {
		s.srv, err = serve.New(p, s.cm, serve.Config{Fleet: fleet, MaxBatch: w.maxBatch, Bipolar: s.bm})
		return err
	}); err != nil {
		return nil, err
	}
	warm := tr.begin("bench.warmup", parent, -1)
	defer tr.end(warm)
	var failed error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := s.pool.X
			n := x.Shape[1]
			for i := 0; i < w.warmup; i++ {
				row := (c + i*w.clients) % s.pool.Samples()
				if _, err := s.srv.Do(context.Background(), func(in *tensor.Tensor) {
					copy(in.F32, x.F32[row*n:(row+1)*n])
				}, nil); err != nil {
					mu.Lock()
					failed = err
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if failed != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", failed)
	}
	return s, nil
}

// servingRefs is what the checks compare served requests against, all
// computed apart from the server.
type servingRefs struct {
	int8Labels  []int // the tflite reference interpreter on the compiled model
	floatLabels []int // the benchmark's float classifier
	bin         []binRef
	// est[r] is the simulated timing of an invoke with r occupied rows.
	est []edgetpu.Timing
}

// references computes the per-row reference answers and timing estimates.
// For a bipolar model it also checks, one operation per class, that every
// packed class word equals the sign pack of the float class hypervector.
func (w *servingWorkload) references(rc *runCtx, s *servingSetup) (*servingRefs, error) {
	ref := &servingRefs{est: make([]edgetpu.Timing, w.maxBatch+1)}
	p := pipeline.EdgeTPU()
	if w.binary {
		words := make([][]uint64, s.model.K())
		for c := range words {
			words[c] = packSigns(s.model.Classes.Row(c))
			same := len(s.bm.Words[c]) == len(words[c])
			for i := 0; same && i < len(words[c]); i++ {
				same = s.bm.Words[c][i] == words[c][i]
			}
			rc.chk.expect(same, "class %d: packed words differ from the sign pack of the float class", c)
		}
		ref.bin = binReference(s.pool.X, s.model.Encoder.Base, words)
		b, err := binhd.New(p.Host, s.bm, s.cm.BatchCapacity())
		if err != nil {
			return nil, err
		}
		t, err := b.EstimateInvoke()
		if err != nil {
			return nil, err
		}
		ref.est[1] = t
		return ref, nil
	}
	ref.floatLabels = floatLabels(s.pool.X, s.model.Encoder.Base, s.model.Classes)
	it, err := tflite.NewInterpreter(s.cm.Model)
	if err != nil {
		return nil, err
	}
	x, n, b := s.pool.X, s.pool.Features(), w.maxBatch
	for lo := 0; lo < s.pool.Samples(); lo += b {
		rows := min(b, s.pool.Samples()-lo)
		copy(it.Input(0).F32[:rows*n], x.F32[lo*n:(lo+rows)*n])
		if err := it.InvokeRows(rows); err != nil {
			return nil, err
		}
		for r := 0; r < rows; r++ {
			ref.int8Labels = append(ref.int8Labels, int(it.Output(0).I32[r]))
		}
	}
	dev := edgetpu.NewDevice(*p.Accel)
	if _, err := dev.LoadModel(s.cm); err != nil {
		return nil, err
	}
	for r := 1; r <= w.maxBatch; r++ {
		if ref.est[r], err = dev.EstimateInvokeBatch(r); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// client is one closed-loop caller. Its fill and consume callbacks are
// bound once, so a request allocates nothing on the benchmark's side. They
// reach only the small slot, never the client's sample buffers: the server
// may keep references to settled requests (and so to their callbacks),
// which must not keep the benchmark's own buffers alive in heap_live_mb.
type client struct {
	srv     *serve.Server
	slot    *slot
	fill    func(in *tensor.Tensor)
	consume func(out *tensor.Tensor)

	chk  checks
	lat  []float64 // caller-observed Submit latency, µs
	qw   []float64 // Result.QueueWait, µs (traced runs)
	wk   []float64 // Result.Latency − Result.QueueWait, µs (traced runs)
	ho   []float64 // caller-observed latency − Result.Latency, µs (traced runs)
	rows int       // Σ Result.BatchSize
	sim  float64   // Σ Result.Timing.Total() / BatchSize, µs
	hits int       // served labels equal to the held-out label
	agr  int       // served labels equal to the float classifier's
	// cycles[r] is the simulated cycle count of an r-row invoke (0 when
	// none was seen).
	cycles []uint64
}

// slot is the request in flight of one client: the row it submits and the
// label served for it.
type slot struct {
	row   int
	label int32
}

func newClient(srv *serve.Server, x *tensor.Tensor, capacity, maxBatch int) *client {
	sl := &slot{}
	c := &client{srv: srv, slot: sl, lat: make([]float64, 0, capacity), cycles: make([]uint64, maxBatch+1)}
	n := x.Shape[1]
	c.fill = func(in *tensor.Tensor) { copy(in.F32, x.F32[sl.row*n:(sl.row+1)*n]) }
	c.consume = func(out *tensor.Tensor) { sl.label = out.I32[0] }
	return c
}

// loadStats is the merged outcome of one measured closed loop.
type loadStats struct {
	requests int
	wall     time.Duration
	lat      []float64
	qw, wk   []float64
	ho       []float64
	rows     int
	sim      float64
	hits     int
	agr      int
	cycles   []uint64
	alloc    uint64
	chk      checks
}

func (l *loadStats) throughput() float64 { return float64(l.requests) / l.wall.Seconds() }

// measure runs the closed loop for d and checks every served request. With
// tr non-nil each Submit is a span under parent and the server's own
// stage durations are kept.
func (w *servingWorkload) measure(rc *runCtx, s *servingSetup, ref *servingRefs, d time.Duration, tr *tracer, parent int) *loadStats {
	capacity := int(d.Seconds()*float64(w.maxRate))/w.clients + 1024
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(s.srv, s.pool.X, capacity, w.maxBatch)
		if tr != nil {
			clients[i].qw = make([]float64, 0, capacity)
			clients[i].wk = make([]float64, 0, capacity)
			clients[i].ho = make([]float64, 0, capacity)
		}
	}
	pool := s.pool.Samples()
	k := s.model.K()
	runtime.GC()
	var meter allocMeter
	meter.start()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				row := (ci + i*w.clients) % pool
				c.slot.row, c.slot.label = row, -1
				id := tr.begin("serve.submit", parent, int64(ci)<<40|int64(i))
				res, err := c.srv.Do(ctx, c.fill, c.consume)
				tr.end(id)
				wall := time.Since(t0)
				label := int(c.slot.label)
				if rc.corrupt.flipLabel && ci == 0 && i == 0 {
					label = (label + 1) % k
				}
				if rc.corrupt.shiftTiming && ci == 0 && i == 0 {
					res.Timing.HostFallback++
				}
				c.check(w, ref, row, res, err, label)
				c.lat = append(c.lat, float64(wall.Nanoseconds())/1e3)
				if tr != nil {
					c.qw = append(c.qw, float64(res.QueueWait.Nanoseconds())/1e3)
					c.wk = append(c.wk, float64((res.Latency-res.QueueWait).Nanoseconds())/1e3)
					c.ho = append(c.ho, float64((wall-res.Latency).Nanoseconds())/1e3)
				}
				if label == s.pool.Y[row] {
					c.hits++
				}
			}
		}(ci, c)
	}
	wg.Wait()
	ls := &loadStats{wall: time.Since(start), cycles: make([]uint64, w.maxBatch+1)}
	ls.alloc, _ = meter.stop()
	for _, c := range clients {
		ls.requests += len(c.lat)
		ls.lat = append(ls.lat, c.lat...)
		ls.qw = append(ls.qw, c.qw...)
		ls.wk = append(ls.wk, c.wk...)
		ls.ho = append(ls.ho, c.ho...)
		ls.rows += c.rows
		ls.sim += c.sim
		ls.hits += c.hits
		ls.agr += c.agr
		for r, cy := range c.cycles {
			if cy != 0 {
				ls.cycles[r] = cy
			}
		}
		ls.chk.merge(&c.chk)
	}
	return ls
}

// check records one served request as an operation: it fails on a request
// error, a label that disagrees with the reference, or a simulated timing
// that differs from the estimate at the invoke's occupancy.
func (c *client) check(w *servingWorkload, ref *servingRefs, row int, res serve.Result, err error, label int) {
	if err != nil {
		c.chk.record(false)
		c.chk.note("row %d: %v", row, err)
		return
	}
	rows := res.BatchSize
	if rows < 1 || rows > w.maxBatch {
		c.chk.record(false)
		c.chk.note("row %d: batch size %d outside [1, %d]", row, rows, w.maxBatch)
		return
	}
	var labelOK bool
	if w.binary {
		labelOK = binLabelOK(ref.bin[row], label)
	} else {
		labelOK = label == ref.int8Labels[row]
		if label == ref.floatLabels[row] {
			c.agr++
		}
	}
	timingOK := res.Timing == ref.est[rows]
	if !c.chk.record(labelOK && timingOK) {
		c.chk.note("row %d: served label %d (label ok %v), timing %+v vs estimate %+v",
			row, label, labelOK, res.Timing, ref.est[rows])
	}
	c.rows += rows
	c.sim += float64(res.Timing.Total().Nanoseconds()) / 1e3 / float64(rows)
	c.cycles[rows] = res.Timing.Cycles
}

// run is one benchmark run of the workload.
func (w *servingWorkload) run(rc *runCtx) error {
	if rc.traced() {
		return w.runTraced(rc)
	}
	setupS, s, err := timeSetups(func() (*servingSetup, error) { return w.setup(rc, -1) }, (*servingSetup).close)
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := w.references(rc, s)
	if err != nil {
		return err
	}
	ls := w.measure(rc, s, ref, rc.measure, nil, -1)
	w.finish(rc, s, ls)
	rc.report("setup_s", setupS, "s")
	rc.report("throughput_per_s", ls.throughput(), "1/s")
	rc.report("latency_p50_us", quantile(ls.lat, 0.5), "us")
	rc.logf("latency p99_us=%.3f samples=%d", quantile(ls.lat, 0.99), len(ls.lat))
	rc.report("accuracy", float64(ls.hits)/float64(ls.requests), "ratio")
	rc.report("alloc_bytes_per_op", float64(ls.alloc)/float64(ls.requests), "B")
	rc.report("heap_live_mb", heapLiveMiB(), "MiB")
	runtime.KeepAlive(s)
	runtime.KeepAlive(ref)
	return nil
}

// finish adds the aggregate float-agreement check and logs the counts that
// must not move for a wall-time change.
func (w *servingWorkload) finish(rc *runCtx, s *servingSetup, ls *loadStats) {
	rc.chk.merge(&ls.chk)
	if !w.binary {
		share := float64(ls.agr) / float64(ls.requests)
		rc.chk.expect(share >= w.minFloatAgree, "float classifier agrees on %.4f of served labels, want >= %.2f",
			share, w.minFloatAgree)
		rc.logf("float-agreement share=%.4f min=%.2f", share, w.minFloatAgree)
	}
	rc.logf("counts requests=%d hdc.updates=%d sim_us_per_sample=%.6f mean_batch_rows=%.4f sim_cycles=%s",
		ls.requests, s.updates, ls.sim/float64(ls.requests), float64(ls.rows)/float64(ls.requests), cyclesString(ls.cycles))
}

// cyclesString lists the simulated cycles per invoke at each occupancy seen.
func cyclesString(cycles []uint64) string {
	out := ""
	for r, c := range cycles {
		if c != 0 {
			if out != "" {
				out += ","
			}
			out += fmt.Sprintf("%d:%d", r, c)
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// runTraced is the traced run: set-up with spans, the closed loop untraced
// and then traced for half the run each (their throughput difference is
// the tracing overhead), then the layer probes on the served model.
func (w *servingWorkload) runTraced(rc *runCtx) error {
	tr := rc.tr
	root := tr.begin("bench.setup", -1, -1)
	s, err := w.setup(rc, root)
	tr.end(root)
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := w.references(rc, s)
	if err != nil {
		return err
	}
	half := rc.measure / 2
	plain := w.measure(rc, s, ref, half, nil, -1)
	m := tr.begin("bench.measure", -1, -1)
	ls := w.measure(rc, s, ref, half, tr, m)
	tr.end(m)
	rc.chk.merge(&plain.chk)
	w.finish(rc, s, ls)
	reportServeLayer(rc, ls)
	rc.report("bench.trace_overhead_pct", 100*(1-ls.throughput()/plain.throughput()), "%")
	rc.report("hdc.updates", float64(s.updates), "count")
	rc.report("sim_us_per_sample", ls.sim/float64(ls.requests), "us")

	p := pipeline.EdgeTPU()
	pr := tr.begin("bench.probe", -1, -1)
	defer tr.end(pr)
	ps := &probeSet{model: s.model, bm: s.bm, train: s.train, x: s.pool.X, inf: s.cm, infRows: w.maxBatch}
	if ps.enc, err = pipeline.CompileEncoder(p, s.model.Encoder, s.train, pipeline.DefaultBatch); err != nil {
		return err
	}
	return ps.run(rc, pr)
}

// reportServeLayer reports the serving layer's per-request breakdown.
func reportServeLayer(rc *runCtx, ls *loadStats) {
	rc.report("serve.queue_wait_us", quantile(ls.qw, 0.5), "us")
	rc.report("serve.worker_us", quantile(ls.wk, 0.5), "us")
	rc.report("serve.handoff_us", quantile(ls.ho, 0.5), "us")
	rc.report("serve.batch_rows", float64(ls.rows)/float64(ls.requests), "rows")
}
