package main

import (
	"io"
	"testing"
	"time"
)

// Small configurations of the three workloads, so each self-test runs in
// well under a second of measurement.
func smallIsolet() *servingWorkload {
	w := *isoletServing
	w.dim, w.trainRows, w.poolRows, w.epochs, w.warmup = 512, 104, 32, 2, 1
	w.minFloatAgree = 0.5
	return &w
}

func smallBin() *servingWorkload {
	w := *binServing
	w.dim, w.trainRows, w.poolRows, w.warmup = 256, 256, 64, 10
	return &w
}

func smallTraining() *trainingWorkload {
	w := *isoletTraining
	w.dim, w.trainRows, w.heldOut, w.epochs, w.sampleRows = 512, 64, 52, 2, 4
	w.minAccuracy = 0.1
	return &w
}

func smallRun(t *testing.T, run func(*runCtx) error, c corruption, traced bool) *runCtx {
	t.Helper()
	rc := &runCtx{seed: 7, measure: 200 * time.Millisecond, out: io.Discard, metrics: map[string]metric{}, corrupt: c}
	if traced {
		rc.tr = newTracer()
	}
	if err := run(rc); err != nil {
		t.Fatal(err)
	}
	if rc.chk.attempted == 0 {
		t.Fatal("run attempted no operations")
	}
	return rc
}

// TestChecksCatchCorruption corrupts one input a check sees and asserts
// that the run counts a failed operation, after the same run uncorrupted
// counted none: a check that passes everything fails this test.
func TestChecksCatchCorruption(t *testing.T) {
	cases := []struct {
		name    string
		run     func(*runCtx) error
		corrupt corruption
	}{
		{"served label flipped", smallIsolet().run, corruption{flipLabel: true}},
		{"packed class word changed", smallBin().run, corruption{classWord: true}},
		{"int8 timing shifted", smallIsolet().run, corruption{shiftTiming: true}},
		{"bin timing shifted", smallBin().run, corruption{shiftTiming: true}},
		{"encoded row outside bound", smallTraining().run, corruption{encodedRow: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rc := smallRun(t, tc.run, corruption{}, false); rc.chk.failed != 0 {
				t.Fatalf("clean run failed %d of %d operations: %v", rc.chk.failed, rc.chk.attempted, rc.chk.notes)
			}
			rc := smallRun(t, tc.run, tc.corrupt, false)
			if rc.chk.failed == 0 {
				t.Fatalf("corrupted run counted no failed operation out of %d", rc.chk.attempted)
			}
			t.Logf("caught %d of %d: %v", rc.chk.failed, rc.chk.attempted, rc.chk.notes)
		})
	}
}

// TestTracedRunsReportEveryPerLayerMetric checks that a traced run of each
// workload reports the same metric set, with no failed operation.
func TestTracedRunsReportEveryPerLayerMetric(t *testing.T) {
	var want map[string]metric
	for _, run := range []func(*runCtx) error{smallIsolet().run, smallBin().run, smallTraining().run} {
		rc := smallRun(t, run, corruption{}, true)
		if rc.chk.failed != 0 {
			t.Fatalf("traced run failed %d operations: %v", rc.chk.failed, rc.chk.notes)
		}
		if want == nil {
			want = rc.metrics
		}
		for name := range want {
			if _, ok := rc.metrics[name]; !ok {
				t.Errorf("traced run lacks %s", name)
			}
		}
		if len(rc.metrics) != len(want) {
			t.Errorf("traced run reports %d metrics, want %d", len(rc.metrics), len(want))
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 10, Parent: -1},
		{Name: "child", Start: 1, End: 3, Parent: 0},
		{Name: "child", Start: 2, End: 5, Parent: 0},
		{Name: "child", Start: 7, End: 8, Parent: 0},
	}}
	if got := tr.selfTimes()["parent"]; len(got) != 1 || got[0] != 5 {
		t.Fatalf("parent self time %v, want [5]", got)
	}
}
