package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// trainingWorkload repeats the co-design training flow,
// pipeline.TrainOnDevice: encoding on the simulated accelerator, class
// updates on the host.
type trainingWorkload struct {
	spec       string
	dim        int
	trainRows  int
	heldOut    int // rows the trained model's accuracy is measured on
	epochs     int
	warmupRows int // rows of the one-epoch warm-up training run
	sampleRows int // device-encoded rows checked against the error bound
	// minAccuracy is the held-out accuracy a trained model must reach.
	minAccuracy float64
}

var isoletTraining = &trainingWorkload{
	spec: "ISOLET", dim: 10000, trainRows: 256, heldOut: 260, epochs: 20,
	warmupRows: 32, sampleRows: 32, minAccuracy: 0.5,
}

func (w *trainingWorkload) String() string {
	spec, _ := dataset.CatalogSpec(w.spec)
	return fmt.Sprintf("spec=%s features=%d classes=%d dim=%d train_rows=%d held_out=%d epochs=%d "+
		"encode_batch=%d warmup_rows=%d checked_rows=%d setups=%d faults=none",
		w.spec, spec.Features, spec.Classes, w.dim, w.trainRows, w.heldOut, w.epochs,
		pipeline.DefaultBatch, w.warmupRows, w.sampleRows, setupRepeats)
}

func (w *trainingWorkload) config(seed uint64, epochs int) hdc.TrainConfig {
	return hdc.TrainConfig{Dim: w.dim, Epochs: epochs, LearningRate: 1, Nonlinear: true, Seed: mix(seed ^ 0x7A1)}
}

type trainingSetup struct{ train, held *dataset.Dataset }

// setup generates the rows and warms the training path up with a short
// run on a few of them.
func (w *trainingWorkload) setup(rc *runCtx, parent int) (*trainingSetup, error) {
	var ds *dataset.Dataset
	if err := rc.tr.do("dataset.generate", parent, func() (err error) {
		ds, err = generate(w.spec, w.trainRows+w.heldOut, rc.seed)
		return err
	}); err != nil {
		return nil, err
	}
	s := &trainingSetup{train: split(ds, 0, w.trainRows), held: split(ds, w.trainRows, w.trainRows+w.heldOut)}
	err := rc.tr.do("bench.warmup", parent, func() error {
		_, err := pipeline.TrainOnDevice(pipeline.EdgeTPU(), split(ds, 0, w.warmupRows), w.config(rc.seed, 1))
		return err
	})
	return s, err
}

// job is one TrainOnDevice call as the checks see it.
type job struct {
	wall    time.Duration
	err     error
	device  edgetpu.Timing
	updates int
	same    bool // class matrix bit-identical to the first job's
}

// trainLoop calls TrainOnDevice until d has passed, keeping the first
// result. Each call is a span under parent when tr is non-nil.
func (w *trainingWorkload) trainLoop(rc *runCtx, s *trainingSetup, d time.Duration, tr *tracer, parent int,
	first **pipeline.FunctionalResult) ([]job, uint64) {
	p := pipeline.EdgeTPU()
	cfg := w.config(rc.seed, w.epochs)
	var jobs []job
	runtime.GC()
	var meter allocMeter
	meter.start()
	deadline := time.Now().Add(d)
	for len(jobs) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		id := tr.begin("pipeline.train_on_device", parent, int64(len(jobs)))
		res, err := pipeline.TrainOnDevice(p, s.train, cfg)
		tr.end(id)
		j := job{wall: time.Since(t0), err: err}
		if err == nil {
			j.device, j.updates = res.DeviceTime, res.Stats.TotalUpdates()
			if *first == nil {
				*first = res
			}
			j.same = equalF32((*first).Model.Classes.F32, res.Model.Classes.F32)
		}
		jobs = append(jobs, j)
	}
	alloc, _ := meter.stop()
	return jobs, alloc
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// verify checks every job and the first job's model: the simulated device
// time of a job must equal its invoke count times the encoder graph's
// estimate, and every job must reproduce the first bit for bit; sampled
// device-encoded rows must lie within the quantization error bound; the
// held-out accuracy must reach minAccuracy. It returns the accuracy.
func (w *trainingWorkload) verify(rc *runCtx, s *trainingSetup, jobs []job, first *pipeline.FunctionalResult) (float64, error) {
	if first == nil {
		for i, j := range jobs {
			rc.chk.expect(false, "job %d: %v", i, j.err)
		}
		return 0, nil
	}
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileEncoder(p, first.Model.Encoder, s.train, pipeline.DefaultBatch)
	if err != nil {
		return 0, err
	}
	dev := edgetpu.NewDevice(*p.Accel)
	if _, err := dev.LoadModel(cm); err != nil {
		return 0, err
	}
	est, err := dev.EstimateInvoke()
	if err != nil {
		return 0, err
	}
	var want edgetpu.Timing
	for lo := 0; lo < s.train.Samples(); lo += pipeline.DefaultBatch {
		want.Add(est)
	}
	for i, j := range jobs {
		rc.chk.expect(j.err == nil && j.same && j.updates == jobs[0].updates && j.device == want,
			"job %d: err %v, same model %v, updates %d vs %d, device time %+v vs %+v",
			i, j.err, j.same, j.updates, jobs[0].updates, j.device, want)
	}

	// Device-encode sampled training rows on the same compiled encoder.
	n := s.train.Features()
	rows := make([]int, w.sampleRows)
	for i := range rows {
		rows[i] = int(mix(rc.seed+uint64(i)) % uint64(s.train.Samples()))
	}
	in := dev.Input(0)
	for r, src := range rows {
		copy(in.F32[r*n:(r+1)*n], s.train.X.Row(src))
	}
	if _, err := dev.Invoke(); err != nil {
		return 0, err
	}
	q, err := encoderScales(cm.Model)
	if err != nil {
		return 0, err
	}
	d := first.Model.Dim()
	got := dev.Output(0).F32
	if rc.corrupt.encodedRow {
		got[0] += 4
	}
	for r, src := range rows {
		bad := q.outOfBound(s.train.X.Row(src), first.Model.Encoder.Base, got[r*d:(r+1)*d])
		rc.chk.expect(bad < 0, "row %d: device encoding of dimension %d outside the quantization bound", src, bad)
	}

	labels := floatLabels(s.held.X, first.Model.Encoder.Base, first.Model.Classes)
	hits := 0
	for i, l := range labels {
		if l == s.held.Y[i] {
			hits++
		}
	}
	acc := float64(hits) / float64(len(labels))
	rc.chk.expect(acc >= w.minAccuracy, "held-out accuracy %.4f below %.2f", acc, w.minAccuracy)
	return acc, nil
}

// quantScales are the quantization parameters of the encoder graph
// QUANTIZE → FC → TANH → DEQUANTIZE.
type quantScales struct {
	in, fc, tanh tensor.QuantParams // QUANTIZE, FC and TANH outputs
	weight       float64            // FC weight scale (symmetric)
}

// encoderScales reads the quantization parameters off the compiled graph.
func encoderScales(m *tflite.Model) (quantScales, error) {
	var q quantScales
	found := 0
	for _, op := range m.Operators {
		out := m.Tensors[op.Outputs[0]].Quant
		switch op.Op {
		case tflite.OpQuantize:
			q.in, found = *out, found+1
		case tflite.OpFullyConnected:
			w := m.Tensors[op.Inputs[1]].Quant
			if w == nil || w.ZeroPoint != 0 {
				return q, fmt.Errorf("encoder FC weights are not symmetric int8")
			}
			q.fc, q.weight, found = *out, w.Scale, found+1
		case tflite.OpTanh:
			q.tanh, found = *out, found+1
		}
	}
	if found != 3 {
		return q, fmt.Errorf("encoder graph %q is not QUANTIZE → FC → TANH", m.Name)
	}
	return q, nil
}

// outOfBound returns the first dimension of a device-encoded row y outside
// the error bound the scales allow around tanh(x·B), or -1. The bound:
// the input quantizes to x̂ (rounding and clamping, computed exactly), the
// weights round by at most half their scale, so the int32 accumulator is
// within Σ|x−x̂|·|B| + Σ|x̂|·s_w/2 of x·B; requantization adds half the FC
// output scale and clamps to its int8 range; tanh is monotone and
// 1-Lipschitz; the TANH output adds one scale step of rounding and
// clamping.
func (q quantScales) outOfBound(x []float32, base *tensor.Tensor, y []float32) int {
	d := base.Shape[1]
	h := make([]float64, d)
	project(h, x, base.F32)
	errAcc := make([]float64, d)
	for i, xv := range x {
		xq := q.in.DequantizeOne(q.in.QuantizeOne(float64(xv)))
		ex := math.Abs(float64(xv) - xq)
		ew := math.Abs(xq) * q.weight / 2
		for j, b := range base.F32[i*d : (i+1)*d] {
			errAcc[j] += ex*math.Abs(float64(b)) + ew
		}
	}
	hLo := q.fc.DequantizeOne(-128)
	hHi := q.fc.DequantizeOne(127)
	const tol = 1e-6
	for j, hv := range h {
		e := errAcc[j] + q.fc.Scale/2*(1+1e-6)
		lo := math.Min(math.Max(hv-e, hLo), hHi)
		hi := math.Min(math.Max(hv+e, hLo), hHi)
		yv := float64(y[j])
		if yv < math.Tanh(lo)-q.tanh.Scale-tol || yv > math.Tanh(hi)+q.tanh.Scale+tol {
			return j
		}
	}
	return -1
}

func (w *trainingWorkload) run(rc *runCtx) error {
	if rc.traced() {
		return w.runTraced(rc)
	}
	setupS, s, err := timeSetups(func() (*trainingSetup, error) { return w.setup(rc, -1) }, func(*trainingSetup) {})
	if err != nil {
		return err
	}
	var first *pipeline.FunctionalResult
	jobs, alloc := w.trainLoop(rc, s, rc.measure, nil, -1, &first)
	acc, err := w.verify(rc, s, jobs, first)
	if err != nil {
		return err
	}
	w.logCounts(rc, jobs)
	walls := make([]float64, len(jobs))
	for i, j := range jobs {
		walls[i] = float64(j.wall.Nanoseconds()) / 1e3
	}
	rows := float64(len(jobs) * w.trainRows)
	rc.report("setup_s", setupS, "s")
	rc.report("throughput_per_s", float64(w.trainRows)/perJob(jobs), "1/s")
	rc.report("latency_p50_us", quantile(walls, 0.5), "us")
	rc.logf("latency max_us=%.3f jobs=%d", quantile(walls, 1), len(walls))
	rc.report("accuracy", acc, "ratio")
	rc.report("alloc_bytes_per_op", float64(alloc)/rows, "B")
	rc.report("heap_live_mb", heapLiveMiB(), "MiB")
	runtime.KeepAlive(first)
	runtime.KeepAlive(s)
	return nil
}

// logCounts logs the counts that must not move for a wall-time change.
func (w *trainingWorkload) logCounts(rc *runCtx, jobs []job) {
	j := jobs[0]
	invokes := (w.trainRows + pipeline.DefaultBatch - 1) / pipeline.DefaultBatch
	rc.logf("counts jobs=%d hdc.updates=%d sim_us_per_sample=%.6f sim_cycles=%d:%d",
		len(jobs), j.updates, float64(j.device.Total().Nanoseconds())/1e3/float64(w.trainRows),
		pipeline.DefaultBatch, j.device.Cycles/uint64(invokes))
}

// runTraced is the traced run: set-up and the training loop with spans,
// the same loop untraced for the overhead, then the layer probes on the
// trained model, including a short serving loop of it.
func (w *trainingWorkload) runTraced(rc *runCtx) error {
	tr := rc.tr
	root := tr.begin("bench.setup", -1, -1)
	s, err := w.setup(rc, root)
	tr.end(root)
	if err != nil {
		return err
	}
	half := rc.measure / 2
	var first *pipeline.FunctionalResult
	plain, _ := w.trainLoop(rc, s, half, nil, -1, &first)
	m := tr.begin("bench.measure", -1, -1)
	jobs, _ := w.trainLoop(rc, s, half, tr, m, &first)
	tr.end(m)
	acc, err := w.verify(rc, s, append(plain, jobs...), first)
	if err != nil {
		return err
	}
	w.logCounts(rc, jobs)
	rc.logf("accuracy=%.4f", acc)
	rc.report("bench.trace_overhead_pct", 100*(1-perJob(plain)/perJob(jobs)), "%")
	rc.report("hdc.updates", float64(jobs[0].updates), "count")
	rc.report("sim_us_per_sample", float64(jobs[0].device.Total().Nanoseconds())/1e3/float64(w.trainRows), "us")

	// The probes and a short serving loop run on the trained model.
	p := pipeline.EdgeTPU()
	pr := tr.begin("bench.probe", -1, -1)
	defer tr.end(pr)
	ps := &probeSet{model: first.Model, train: s.train, x: s.held.X, infRows: isoletServing.maxBatch, encoderHot: true}
	if ps.enc, err = pipeline.CompileEncoder(p, first.Model.Encoder, s.train, pipeline.DefaultBatch); err != nil {
		return err
	}
	if ps.inf, err = pipeline.CompileInference(p, first.Model, s.train, ps.infRows); err != nil {
		return err
	}
	if err := ps.run(rc, pr); err != nil {
		return err
	}
	fleet, err := serve.ParseFleet(isoletServing.fleet)
	if err != nil {
		return err
	}
	srv, err := serve.New(p, ps.inf, serve.Config{Fleet: fleet, MaxBatch: ps.infRows})
	if err != nil {
		return err
	}
	ss := &servingSetup{train: s.train, pool: s.held, model: first.Model, cm: ps.inf, srv: srv}
	defer ss.close()
	ref, err := isoletServing.references(rc, ss)
	if err != nil {
		return err
	}
	ls := isoletServing.measure(rc, ss, ref, time.Second, tr, pr)
	rc.chk.merge(&ls.chk)
	reportServeLayer(rc, ls)
	return nil
}

// perJob is the mean wall time of the jobs in seconds.
func perJob(jobs []job) float64 {
	t := 0.0
	for _, j := range jobs {
		t += j.wall.Seconds()
	}
	return t / float64(len(jobs))
}
