// End-to-end allocation budget for Run: the steady-state object and byte
// counts that the hot-path allocation purge, the lazy Rx page stash and
// the single binary-heap event scheduler bought.
package hostsim_test

import (
	"runtime"
	"testing"
	"time"

	"hostsim"
)

// TestRunAllocationBudget guards the hot-path allocation purge, the lazy
// Rx page stash and the heap scheduler's storage: each run must stay
// within a fixed budget of objects and bytes. The pair run sits near 930
// objects and 0.25 MB; the 64-host incast near 21k objects and 4.4 MB,
// where eagerly built Rx stashes cost 23.5 MB. Each bound leaves headroom
// so it trips only on a real regression: a per-packet allocation
// multiplies the object count, materialising every stash page again
// multiplies the bytes, and per-slot scheduler storage (a timing wheel
// cost about 1,650 objects per pair run) breaks the pair's 1,300.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	if raceEnabled {
		// The detector's shadow allocations count in MemStats; CI runs
		// this test in a separate non-race step.
		t.Skip("the race detector's allocations are not the simulator's")
	}
	fab := hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7, ECNMarkKB: 64,
		Warmup: 3 * time.Millisecond, Duration: 4 * time.Millisecond,
		Fabric: &hostsim.FabricOptions{Hosts: 64, SharedBufferKB: 16384},
	}
	fab.Stack.CC = "dctcp"
	// The observed row arms the timeline and the fabric observatory over
	// the same run: ≈8k timeline columns, whose registration cost one
	// closure and one name string per column before columns were
	// registered in blocks (≈42k objects and 9.7 MB per run then).
	obs := fab
	obs.Telemetry = &hostsim.Telemetry{}
	obs.FabricObs = &hostsim.FabricObsOptions{}
	for _, tc := range []struct {
		name    string
		cfg     hostsim.Config
		wl      hostsim.Workload
		objects float64
		bytes   float64
	}{
		{"pair", benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 1300, 0.5e6},
		{"fabric-incast64", fab, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), 30000, 8e6},
		{"fabric-incast64-observed", obs, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), 32000, 9.2e6},
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
