package main

import (
	"fmt"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/nnmap"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// probeSet is what the layer probes of a traced run are given: the
// workload's own model, compiled graphs and inputs. The probes time one
// public call per layer, each inside a span named after the metric.
type probeSet struct {
	model *hdc.Model
	bm    *hdc.BipolarModel // served bipolar model; nil when int8-served
	train *dataset.Dataset  // calibration and encoding rows
	x     *tensor.Tensor    // input rows the invokes are filled from
	inf   *edgetpu.CompiledModel
	// infRows is the occupancy of inference-graph invokes: the
	// workload's batch.
	infRows int
	// enc is the encoder graph at pipeline.DefaultBatch rows.
	enc *edgetpu.CompiledModel
	// encoderHot marks a workload whose hot path runs the encoder graph
	// (training); otherwise the inference graph is hot.
	encoderHot bool
}

// probeBudget bounds the time spent repeating one probe; every probe runs
// at least minReps times and at most maxReps.
const (
	probeBudget = 300 * time.Millisecond
	maxReps     = 500
)

// repeat runs fn under spans named name until probeBudget is spent (at
// least minReps and at most maxReps times).
func repeat(tr *tracer, parent int, name string, minReps int, fn func() error) error {
	t0 := time.Now()
	for i := 0; i < maxReps && (i < minReps || time.Since(t0) < probeBudget); i++ {
		if err := tr.do(name, parent, fn); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// allocsPer returns the heap allocations per call of fn over reps calls.
func allocsPer(reps int, fn func() error) (float64, error) {
	var m allocMeter
	m.start()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	_, objects := m.stop()
	return float64(objects) / float64(reps), nil
}

// fillRows copies the first rows rows of x (cycling) into in.
func fillRows(in, x *tensor.Tensor, rows int) {
	n := x.Shape[1]
	for r := 0; r < rows; r++ {
		src := r % x.Shape[0]
		copy(in.F32[r*n:(r+1)*n], x.F32[src*n:(src+1)*n])
	}
}

// hotGraph returns the compiled graph the workload's hot path runs and its
// occupancy.
func (ps *probeSet) hotGraph() (*edgetpu.CompiledModel, int) {
	if ps.encoderHot {
		return ps.enc, pipeline.DefaultBatch
	}
	return ps.inf, ps.infRows
}

// run executes every probe under parent and reports the per-layer metrics
// they give.
func (ps *probeSet) run(rc *runCtx, parent int) error {
	tr := rc.tr
	p := pipeline.EdgeTPU()
	hot, rows := ps.hotGraph()

	// Compilation: the pipeline entry point, then its two stages.
	var fm *tflite.Model
	var err error
	if err := repeat(tr, parent, "pipeline.compile", 1, func() error {
		if ps.encoderHot {
			_, err := pipeline.CompileEncoder(p, ps.model.Encoder, ps.train, pipeline.DefaultBatch)
			return err
		}
		_, err := pipeline.CompileInference(p, ps.model, ps.train, ps.infRows)
		return err
	}); err != nil {
		return err
	}
	batch := ps.infRows
	if ps.encoderHot {
		batch = pipeline.DefaultBatch
		fm, err = nnmap.BuildEncoderModel(ps.model.Encoder, batch)
	} else {
		fm, err = nnmap.BuildInferenceModel(ps.model, batch)
	}
	if err != nil {
		return err
	}
	var qm *tflite.Model
	if err := repeat(tr, parent, "nnmap.quantize", 1, func() (err error) {
		qm, err = nnmap.QuantizeForTPU(fm, ps.train, batch, 8)
		return err
	}); err != nil {
		return err
	}
	if err := repeat(tr, parent, "edgetpu.compile", 3, func() error {
		_, err := edgetpu.Compile(qm, *p.Accel)
		return err
	}); err != nil {
		return err
	}

	// The device and the resilient runner at the workload's occupancy.
	dev := edgetpu.NewDevice(*p.Accel)
	if _, err := dev.LoadModel(hot); err != nil {
		return err
	}
	fillRows(dev.Input(0), ps.x, rows)
	var cycles uint64
	invoke := func() error {
		t, err := dev.InvokeBatch(rows)
		cycles = t.Cycles
		return err
	}
	if err := repeat(tr, parent, "edgetpu.invoke", 3, invoke); err != nil {
		return err
	}
	devAllocs, err := allocsPer(10, invoke)
	if err != nil {
		return err
	}
	runner, runRows, err := ps.runner(p, hot, rows)
	if err != nil {
		return err
	}
	fill := func(in *tensor.Tensor) { fillRows(in, ps.x, runRows) }
	if err := repeat(tr, parent, "pipeline.invoke", 3, func() error {
		_, err := runner.InvokeBatch(runRows, fill)
		return err
	}); err != nil {
		return err
	}

	// The tflite reference kernels op by op, and the systolic array on the
	// same int8 activations. Of the other graph, the encoder gives
	// DEQUANTIZE, the inference graph ARG_MAX and the d→k layer.
	var macs uint64
	hotSpans := map[string]string{"QUANTIZE": "tflite.quantize", "FC0": "tflite.fc_int8", "TANH": "tflite.tanh"}
	hotArray := map[string]string{"FC0": "edgetpu.fc_encode"}
	other, otherRows := ps.enc, pipeline.DefaultBatch
	otherSpans := map[string]string{"DEQUANTIZE": "tflite.dequantize"}
	var otherArray map[string]string
	if ps.encoderHot {
		hotSpans["DEQUANTIZE"] = "tflite.dequantize"
		other, otherRows = ps.inf, ps.infRows
		otherSpans = map[string]string{"ARG_MAX": "tflite.argmax"}
		otherArray = map[string]string{"FC1": "edgetpu.fc_classify"}
	} else {
		hotSpans["ARG_MAX"] = "tflite.argmax"
		hotArray["FC1"] = "edgetpu.fc_classify"
	}
	if err := opProbe(tr, parent, hot, rows, ps.x, hotSpans, hotArray, &macs); err != nil {
		return err
	}
	if err := opProbe(tr, parent, other, otherRows, ps.x, otherSpans, otherArray, &macs); err != nil {
		return err
	}

	// Training-side layers: encoding on the device, an epoch of class
	// updates, host encoding and the class-matrix MatVec.
	var devEncoded *tensor.Tensor
	if err := repeat(tr, parent, "pipeline.encode_on_device", 1, func() (err error) {
		devEncoded, _, err = pipeline.EncodeOnDevice(p, ps.model.Encoder, ps.train, pipeline.DefaultBatch)
		return err
	}); err != nil {
		return err
	}
	if ps.encoderHot {
		if err := repeat(tr, parent, "hdc.encode_host", 1, func() error {
			ps.model.Encoder.EncodeBatch(ps.train.X)
			return nil
		}); err != nil {
			return err
		}
		scratch := hdc.NewModel(ps.model.Encoder, ps.model.K())
		shuffle := shuffleRNG(rc.seed)
		if err := repeat(tr, parent, "hdc.fit_epoch", 3, func() error {
			_, err := scratch.FitEncoded(devEncoded, ps.train.Y, nil, nil, 1, 1, shuffle)
			return err
		}); err != nil {
			return err
		}
	}
	scores := make([]float32, ps.model.K())
	e := devEncoded.Row(0)
	if err := repeat(tr, parent, "tensor.matvec", 3, func() error {
		tensor.MatVec(scores, ps.model.Classes, e)
		return nil
	}); err != nil {
		return err
	}

	// The bit-packed backend on the same model's bipolar form.
	bm := ps.bm
	if bm == nil {
		bm = ps.model.Binarize()
	}
	bb, err := binhd.New(p.Host, bm, 1)
	if err != nil {
		return err
	}
	fillRows(bb.Input(0), ps.x, 1)
	binInvoke := func() error { _, err := bb.InvokeBatch(1); return err }
	if err := repeat(tr, parent, "binhd.invoke", 3, binInvoke); err != nil {
		return err
	}
	binAllocs, err := allocsPer(100, binInvoke)
	if err != nil {
		return err
	}

	self := tr.selfTimes()
	med := func(name string) float64 { return quantile(self[name], 0.5) }
	fcNs := sum(self["edgetpu.fc_encode"]) + sum(self["edgetpu.fc_classify"])
	rc.report("pipeline.invoke_us", med("pipeline.invoke")/1e3, "us")
	rc.report("pipeline.compile_s", med("pipeline.compile")/1e9, "s")
	rc.report("pipeline.encode_on_device_s", med("pipeline.encode_on_device")/1e9, "s")
	rc.report("edgetpu.invoke_us", med("edgetpu.invoke")/1e3, "us")
	rc.report("edgetpu.fc_encode_us", med("edgetpu.fc_encode")/1e3, "us")
	rc.report("edgetpu.fc_classify_us", med("edgetpu.fc_classify")/1e3, "us")
	rc.report("edgetpu.fc_gmac_per_s", float64(macs)/fcNs, "GMAC/s")
	rc.report("edgetpu.allocs_per_invoke", devAllocs, "count")
	rc.report("edgetpu.compile_ms", med("edgetpu.compile")/1e6, "ms")
	rc.report("edgetpu.sim_cycles", float64(cycles), "count")
	rc.report("tflite.quantize_us", med("tflite.quantize")/1e3, "us")
	rc.report("tflite.tanh_us", med("tflite.tanh")/1e3, "us")
	rc.report("tflite.argmax_us", med("tflite.argmax")/1e3, "us")
	rc.report("tflite.dequantize_us", med("tflite.dequantize")/1e3, "us")
	rc.report("tflite.fc_int8_us", med("tflite.fc_int8")/1e3, "us")
	rc.report("nnmap.quantize_s", med("nnmap.quantize")/1e9, "s")
	rc.report("binhd.invoke_us", med("binhd.invoke")/1e3, "us")
	rc.report("binhd.allocs_per_invoke", binAllocs, "count")
	rc.report("hdc.fit_epoch_ms", med("hdc.fit_epoch")/1e6, "ms")
	rc.report("hdc.encode_host_s", med("hdc.encode_host")/1e9, "s")
	rc.report("tensor.matvec_us", med("tensor.matvec")/1e3, "us")
	rc.report("dataset.generate_s", med("dataset.generate")/1e9, "s")
	rc.logf("probe sim_cycles rows=%d cycles=%d", rows, cycles)
	return nil
}

// runner builds the resilient runner the workload's workers run: over the
// bit-packed backend when the workload serves the bipolar model, over the
// device otherwise. It returns the runner and its occupancy.
func (ps *probeSet) runner(p pipeline.Platform, hot *edgetpu.CompiledModel, rows int) (*pipeline.ResilientRunner, int, error) {
	if ps.bm != nil {
		b, err := binhd.New(p.Host, ps.bm, ps.inf.BatchCapacity())
		if err != nil {
			return nil, 0, err
		}
		r, err := pipeline.WrapBackends(b, nil, pipeline.DefaultRecoveryPolicy())
		return r, 1, err
	}
	r, err := pipeline.NewResilientRunner(p, hot, edgetpu.FaultPlan{}, pipeline.DefaultRecoveryPolicy())
	return r, rows, err
}

// opProbe runs cm's graph op by op on the reference interpreter over rows
// occupied rows, repeating until the probe budget is spent. Ops named in
// spans (by op code; "FC0" and "FC1" are the first and second
// FULLY_CONNECTED) run inside a span of the given name; FCs named in array
// run once more per repetition on the systolic array, on the same int8
// input, inside a span of that name. The array's MACs add to macs.
func opProbe(tr *tracer, parent int, cm *edgetpu.CompiledModel, rows int, x *tensor.Tensor,
	spans, array map[string]string, macs *uint64) error {
	it, err := tflite.NewInterpreter(cm.Model)
	if err != nil {
		return err
	}
	fillRows(it.Input(0), x, rows)
	mxu := edgetpu.Array{Rows: cm.Config.MXURows, Cols: cm.Config.MXUCols}
	ops := cm.Model.Operators
	key := make([]string, len(ops))
	fcs := 0
	for i, op := range ops {
		key[i] = op.Op.String()
		if op.Op == tflite.OpFullyConnected {
			key[i] = fmt.Sprintf("FC%d", fcs)
			fcs++
		}
	}
	t0 := time.Now()
	for rep := 0; rep < maxReps && (rep < 3 || time.Since(t0) < probeBudget); rep++ {
		for i, op := range ops {
			id := -1
			if name, ok := spans[key[i]]; ok {
				id = tr.begin(name, parent, -1)
			}
			err := it.InvokeOpRows(i, rows)
			tr.end(id)
			if err != nil {
				return err
			}
			name, ok := array[key[i]]
			if !ok {
				continue
			}
			in := it.TensorRows(op.Inputs[0], rows)
			out := it.TensorRows(op.Outputs[0], rows).Clone()
			w, bias := it.Tensor(op.Inputs[1]), it.Tensor(op.Inputs[2])
			if err := tr.do(name, parent, func() error {
				st, err := mxu.RunFullyConnected(in, w, bias, out)
				*macs += st.MACs
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
