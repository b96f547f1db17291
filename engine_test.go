// End-to-end benchmarks and tests for the event-scheduler rework: the
// hierarchical timing wheel (the default) against the binary-heap
// reference, plus the steady-state allocation budget the hot-path purge
// bought. `make bench-engine` captures the Engine* pairs as JSON into
// BENCH_engine.json; cmd/benchdiff compares two such captures.
package hostsim_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hostsim"
)

// benchEngine runs one short end-to-end simulation per iteration with the
// given scheduler. The workloads below are chosen for their distinct
// timer profiles: a single bulk flow (dense pacing/ack timers), an RPC
// incast (many short-lived flows churning timers), and a lossy mixed load
// (RTO arming/cancel traffic on top of both).
func benchEngine(b *testing.B, sched string, wl hostsim.Workload, loss float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchRunCfg()
		cfg.Scheduler = sched
		cfg.LossRate = loss
		if _, err := hostsim.Run(cfg, wl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWheelIPerf(b *testing.B) {
	benchEngine(b, "wheel", hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 0)
}

func BenchmarkEngineHeapIPerf(b *testing.B) {
	benchEngine(b, "heap", hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 0)
}

func BenchmarkEngineWheelRPCIncast(b *testing.B) {
	benchEngine(b, "wheel", hostsim.RPCIncastWorkload(8, 16384), 0)
}

func BenchmarkEngineHeapRPCIncast(b *testing.B) {
	benchEngine(b, "heap", hostsim.RPCIncastWorkload(8, 16384), 0)
}

func BenchmarkEngineWheelLossyMixed(b *testing.B) {
	benchEngine(b, "wheel", hostsim.MixedWorkload(4, 16384), 0.005)
}

func BenchmarkEngineHeapLossyMixed(b *testing.B) {
	benchEngine(b, "heap", hostsim.MixedWorkload(4, 16384), 0.005)
}

// TestSchedulerResultEquivalence pins the contract stated on
// Config.Scheduler: the wheel and the heap produce identical results on
// every workload, not merely similar ones. Any divergence in dispatch
// order would cascade through the RNG streams and show up here.
func TestSchedulerResultEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		wl   hostsim.Workload
		loss float64
	}{
		{"iperf", hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 0},
		{"incast", hostsim.LongFlowWorkload(hostsim.PatternIncast, 4), 0},
		{"rpc", hostsim.RPCIncastWorkload(8, 16384), 0},
		{"lossy mixed", hostsim.MixedWorkload(4, 16384), 0.005},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := benchRunCfg()
			cfg.LossRate = w.loss
			cfg.Scheduler = "wheel"
			wheel, err := hostsim.Run(cfg, w.wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = "heap"
			heap, err := hostsim.Run(cfg, w.wl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wheel, heap) {
				t.Errorf("wheel and heap results diverged:\nwheel: %+v\nheap:  %+v", wheel, heap)
			}
		})
	}
}

// TestRunUnknownSchedulerRejected pins Run's validation of the knob.
func TestRunUnknownSchedulerRejected(t *testing.T) {
	cfg := benchRunCfg()
	cfg.Scheduler = "calendar"
	if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err == nil {
		t.Fatal("unknown Scheduler should be rejected")
	}
}

// TestRunAllocationBudget guards the hot-path allocation purge and the
// lazy Rx page stash: each run must stay within a fixed budget of
// objects and bytes. The pair run sits near 1.7k objects and 0.3 MB; the
// 64-host incast near 23k objects and 4.8 MB, where eagerly built Rx
// stashes cost 23.5 MB. Each bound leaves headroom so it trips only on a
// real regression: a per-packet allocation multiplies the object count,
// and materialising every stash page again multiplies the bytes.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	fab := hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7, ECNMarkKB: 64,
		Warmup: 3 * time.Millisecond, Duration: 4 * time.Millisecond,
		Fabric: &hostsim.FabricOptions{Hosts: 64, SharedBufferKB: 16384},
	}
	fab.Stack.CC = "dctcp"
	for _, tc := range []struct {
		name    string
		cfg     hostsim.Config
		wl      hostsim.Workload
		objects float64
		bytes   float64
	}{
		{"pair", benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 6000, 0.5e6},
		{"fabric-incast64", fab, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), 30000, 8e6},
	} {
		objects, bytes := allocsPerRun(3, func() {
			if _, err := hostsim.Run(tc.cfg, tc.wl); err != nil {
				t.Fatal(err)
			}
		})
		if objects > tc.objects {
			t.Errorf("%s: Run allocated %.0f objects, budget %.0f; a hot-path allocation has crept back in", tc.name, objects, tc.objects)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: Run allocated %.2f MB, budget %.2f MB", tc.name, bytes/1e6, tc.bytes/1e6)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: the mean
// objects and bytes f allocates per call, after one warm-up call, with
// GOMAXPROCS at 1.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
