package main

import (
	"errors"
	"io"
	"testing"
	"time"

	"hostsim"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// TestP90SampleCount pins the rule that a percentile is reported only with
// at least ten samples beyond it: p90 needs 100 samples.
func TestP90SampleCount(t *testing.T) {
	for _, c := range []struct{ n, beyond int }{
		{99, 9}, {100, 10}, {101, 10}, {109, 10}, {110, 11}, {200, 20},
	} {
		if got := beyond(c.n, 0.9); got != c.beyond {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.beyond)
		}
	}
	if beyond(minSamplesP90, 0.9) < 10 || beyond(minSamplesP90-1, 0.9) >= 10 {
		t.Errorf("minSamplesP90 = %d is not the smallest count with ten samples beyond p90", minSamplesP90)
	}
}

// TestLoopCountsFailures injects an error, a panic and a fingerprint drift
// into an otherwise clean sequence of runs.
func TestLoopCountsFailures(t *testing.T) {
	good := &hostsim.Result{ThroughputGbps: 42, RPCCompleted: 7}
	drifted := &hostsim.Result{ThroughputGbps: 42, RPCCompleted: 8}
	want := modelOf(good)
	n := 0
	run := func() (*hostsim.Result, error) {
		n++
		switch n {
		case 2:
			return nil, errors.New("injected")
		case 4:
			panic("injected")
		case 6:
			return drifted, nil
		}
		return good, nil
	}
	st := loop(run, want, nil, 10, 0, time.Minute, nil, "test")
	if st.attempted != 10 || st.failed != 3 {
		t.Errorf("attempted %d failed %d, want 10 and 3", st.attempted, st.failed)
	}
	if len(st.cpu) != 7 || len(st.wall) != 7 {
		t.Errorf("%d cpu and %d wall samples, want 7 each (failed runs are not timed)", len(st.cpu), len(st.wall))
	}
}

// TestLoopExportFailureCounts checks that a writer error fails the
// iteration and that successful exports are timed.
func TestLoopExportFailureCounts(t *testing.T) {
	res := &hostsim.Result{ThroughputGbps: 1}
	calls := 0
	exports := []export{{"flaky", func(*hostsim.Result, io.Writer) error {
		calls++
		if calls == 1 {
			return errors.New("injected")
		}
		return nil
	}}}
	st := loop(func() (*hostsim.Result, error) { return res, nil }, modelOf(res), exports, 3, 0, time.Minute, nil, "test")
	if st.attempted != 3 || st.failed != 1 || len(st.export) != 2 {
		t.Errorf("attempted %d failed %d exports %d, want 3, 1, 2", st.attempted, st.failed, len(st.export))
	}
}

func TestModelDiff(t *testing.T) {
	a := modelOf(&hostsim.Result{ThroughputGbps: 1, Fabric: &hostsim.FabricStats{InFrames: 10, BufferDrops: 1}})
	if d := a.diff(a); len(d) != 0 {
		t.Errorf("a model differs from itself: %v", d)
	}
	b := a
	b.FabricDropRatio = 0.2
	if d := a.diff(b); len(d) != 1 {
		t.Errorf("diff = %v, want one field", d)
	}
	if a.FabricDropRatio != 0.1 {
		t.Errorf("fabric drop ratio = %v, want 0.1", a.FabricDropRatio)
	}
}

func TestWorkloadsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads() {
		if seen[w.name] {
			t.Errorf("duplicate workload %q", w.name)
		}
		seen[w.name] = true
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.name, len(w.why))
		}
		if got, err := findWorkload(w.name); err != nil || got.name != w.name {
			t.Errorf("findWorkload(%q) = %q, %v", w.name, got.name, err)
		}
		u := unarmed(w.cfg)
		if u.Check != nil || u.Telemetry != nil || u.Profile != nil || u.MsgTrace != nil ||
			u.Inspect != nil || u.FabricObs != nil || u.TraceEvents != 0 || u.TraceSpans {
			t.Errorf("%s: unarmed config still arms an observer", w.name)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("findWorkload accepted an unknown name")
	}
}
