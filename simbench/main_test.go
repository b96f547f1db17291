package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must match.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
}

// runMain runs one short invocation and decodes its last output line.
func runMain(t *testing.T, args ...string) (out string, res struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]metric
}) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--root", "..", "--out", t.TempDir())
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return stdout.String(), res
}

// checkMetrics requires got to hold exactly the declared metrics, with
// the declared units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics printed, %d declared", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: unit %q, declared %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// TestEndToEndRun runs the untraced benchmark on the cheapest workload and
// checks the output contract: exactly the declared metrics, a correct
// result, and at least 100 samples behind p90.
func TestEndToEndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for a few seconds")
	}
	out, res := runMain(t, "--workload", "pair-bulk", "--seed", "3", "--seconds", "1", "--trace", "0")
	if !res.Correct || res.Failed != 0 || res.Attempted < minSamplesP90 {
		t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, res.Metrics, readBenchmarkJSON(t).EndToEnd)
	for k, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m.Value)
		}
	}
	if !strings.Contains(out, `"seed":3`) || !strings.Contains(out, "# run_fail_ratio") {
		t.Errorf("stamp or extra metrics missing:\n%s", out)
	}
}

// TestTracedRun runs the traced benchmark briefly and checks that it
// prints every declared per-layer metric and that the charged layers sum
// to the profiled total.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for a few seconds")
	}
	_, res := runMain(t, "--workload", "pair-bulk", "--seed", "3", "--seconds", "3", "--trace", "1")
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v failed %d", res.Correct, res.Failed)
	}
	checkMetrics(t, res.Metrics, readBenchmarkJSON(t).PerLayer)
	for _, prefix := range []string{"cpu_ms.", "allocs.", "alloc_kb."} {
		var sum float64
		for k, m := range res.Metrics {
			if strings.HasPrefix(k, prefix) && !strings.HasPrefix(k, "cpu_ms.rt.") && k != prefix+"total" {
				sum += m.Value
			}
		}
		total := res.Metrics[prefix+"total"].Value
		if total <= 0 || sum < total*(1-1e-9) || sum > total*(1+1e-9) {
			t.Errorf("%s* layers sum to %v, total %v", prefix, sum, total)
		}
	}
	if v := res.Metrics["model.check_violations"].Value; v != 0 {
		t.Errorf("model.check_violations = %v", v)
	}
	if v := res.Metrics["model.tcp_sent_mb"].Value; v <= 0 {
		t.Errorf("model.tcp_sent_mb = %v, want > 0", v)
	}
}
