package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"hostsim"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

// cpuNow is the process's CPU time so far: user plus system, summed over
// every thread, so GC workers and the scheduler count against the run
// that made them work.
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports kilobytes
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile of xs (0 < p <= 1): the value
// at 1-based rank ceil(p*n) of the sorted samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond is the number of samples ranked above the nearest-rank
// percentile p of n samples. A percentile is reported only when at least
// ten samples lie beyond it, so p90 needs n >= 100.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// minSamplesP90 is the smallest sample count with ten samples beyond p90.
const minSamplesP90 = 100

// runFunc is one simulation; the harness's only entry into the program.
type runFunc func() (*hostsim.Result, error)

// safeRun calls run, turning a panic into an error so one crashing
// iteration counts as a failure instead of ending the benchmark.
func safeRun(run runFunc) (res *hostsim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return run()
}

// loopStats is what one timed loop measured. Times are per iteration, in
// milliseconds, for the iterations that succeeded.
type loopStats struct {
	cpu, wall, export []float64
	attempted, failed int
}

// loop runs iterations until more than minIter have been attempted and
// dur has passed, or until maxWall has passed regardless. An iteration
// fails if run returns an error, panics, or its model fingerprint differs
// from want. Each successful result is handed to every writer in exports
// (into io.Discard), timed separately from the run.
func loop(run runFunc, want model, exports []export, minIter int, dur, maxWall time.Duration, sp *spanLog, phase string) loopStats {
	var st loopStats
	start := time.Now()
	for {
		el := time.Since(start)
		if (st.attempted >= minIter && el >= dur) || el >= maxWall {
			return st
		}
		id := st.attempted
		st.attempted++

		w0, c0 := time.Now(), cpuNow()
		res, err := safeRun(run)
		c1, w1 := cpuNow(), time.Now()
		sp.add(phase, "run", id, w0, w1, c1-c0)
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "simbench: %s iteration %d: %v\n", phase, id, err)
			continue
		}

		if len(exports) > 0 {
			e0, ec0 := time.Now(), cpuNow()
			err = writeExports(res, exports)
			ec1, e1 := cpuNow(), time.Now()
			sp.add(phase, "export", id, e0, e1, ec1-ec0)
			if err != nil {
				st.failed++
				fmt.Fprintf(os.Stderr, "simbench: %s iteration %d: %v\n", phase, id, err)
				continue
			}
			st.export = append(st.export, ms(ec1-ec0))
		}

		v0, vc0 := time.Now(), cpuNow()
		drift := want.diff(modelOf(res))
		sp.add(phase, "verify", id, v0, time.Now(), cpuNow()-vc0)
		if len(drift) > 0 {
			st.failed++
			fmt.Fprintf(os.Stderr, "simbench: %s iteration %d: fingerprint drift: %v\n", phase, id, drift)
			continue
		}
		st.cpu = append(st.cpu, ms(c1-c0))
		st.wall = append(st.wall, ms(w1.Sub(w0)))
	}
}

// writeExports runs every public writer on res into io.Discard.
func writeExports(res *hostsim.Result, exports []export) error {
	for _, e := range exports {
		if err := e.write(res, io.Discard); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// add merges two loops' measurements.
func (st loopStats) add(o loopStats) loopStats {
	return loopStats{
		cpu:       append(st.cpu, o.cpu...),
		wall:      append(st.wall, o.wall...),
		export:    append(st.export, o.export...),
		attempted: st.attempted + o.attempted,
		failed:    st.failed + o.failed,
	}
}
