// Command simbench is the repository's benchmark: it runs one named
// workload through the public hostsim.Run, one simulation at a time, and
// prints what the simulator costs to run in host time.
//
//	simbench --workload pair-bulk --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (process CPU per run,
// set-up time, allocations). With --trace 1 it prints the per-layer split
// instead, from a CPU profile and an exact allocation profile of the same
// loop, folded by package. Every run first checks the program's outputs:
// a Check-armed run must report no violations, and every run must
// reproduce the unarmed run's simulated fingerprint exactly. The last line
// of standard output is one JSON object; earlier lines starting with '#'
// stamp the machine and list every metric with its unit.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"hostsim"
)

const (
	// segments splits the untraced loop, with a set-up block before each
	// segment, so that setup_s samples the same stretch of machine state
	// as run_cpu_ms instead of one moment at the start.
	segments = 10
	// Each set-up block times 2 to 100 set-up Runs for about setupWall /
	// segments.
	setupMinReps = 2
	setupMaxReps = 100
	setupWall    = time.Second
	// maxOverrun is how far past its duration a loop may run to reach
	// its minimum iteration count, so a slow machine still ends in time.
	maxOverrun = 8 * time.Second
	// cpuProfileHz is the traced run's CPU sampling rate, raised from
	// Go's 100 Hz so each workload gets thousands of samples.
	cpuProfileHz = 1000
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pair-bulk, rpc-incast, fabric-incast64 or mixed-observed")
	seed := fs.Int64("seed", 7, "simulation seed")
	seconds := fs.Int("seconds", 20, "seconds of measurement")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with the per-layer split")
	root := fs.String("root", ".", "repository root, hashed into the result stamp")
	out := fs.String("out", ".bench_build/simbench-out", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "simbench: want --seconds >= 1, --trace 0 or 1 and no arguments")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	traced := *traceFlag == 1
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	if traced {
		b.spans = newSpanLog()
	}
	st := newStamp(*root, w.name, *seed, *seconds, traced)
	s0, t0, ok0 := cpuTicks()

	var res result
	if traced {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", w.name, err)
		return 1
	}
	s1, t1, ok1 := cpuTicks()
	st.StealShare = stealShare(s0, t0, s1, t1, ok0 && ok1)

	if traced {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		if err := b.spans.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "simbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %s\n", path)
	}
	if err := res.print(stdout, st); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	return 0
}

// bench runs one workload at one seed.
type bench struct {
	w     workload
	seed  int64
	dur   time.Duration
	spans *spanLog // nil on the untraced run
}

func (b *bench) cfg() hostsim.Config {
	c := b.w.cfg
	c.Seed = b.seed
	return c
}

func (b *bench) runWith(cfg hostsim.Config) runFunc {
	return func() (*hostsim.Result, error) { return hostsim.Run(cfg, b.w.wl) }
}

// simulated is the simulated time one run covers, warmup included.
func (b *bench) simulated() time.Duration { return b.w.cfg.Warmup + b.w.cfg.Duration }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's report. metrics go into the final JSON line;
// extra metrics are printed only in the '#' table.
type result struct {
	correct           bool
	attempted, failed int
	metrics, extra    map[string]metric
}

func (r result) print(w io.Writer, st stamp) error {
	sj, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# stamp %s\n", sj)
	all := map[string]metric{}
	for k, v := range r.metrics {
		all[k] = v
	}
	for k, v := range r.extra {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setupBlock times Runs with a 1 ns warmup and a 1 ns window for about
// dur: everything a run pays before its first event (topology, pools,
// caches, workload build, observer attach) plus result assembly. It
// appends each timed Run's CPU seconds to cpu. Each timed Run follows a
// GC and one untimed Run: it pays for its own work with warm caches, and
// not for collecting the garbage of the Runs before it (about 45% of the
// figure on mixed-observed otherwise).
func (b *bench) setupBlock(dur time.Duration, cpu []float64) ([]float64, error) {
	cfg := b.cfg()
	cfg.Warmup, cfg.Duration = 1, 1
	run := b.runWith(cfg)
	start := time.Now()
	for n := 0; n < setupMaxReps && (n < setupMinReps || time.Since(start) < dur); n++ {
		runtime.GC()
		if _, err := safeRun(run); err != nil {
			return cpu, fmt.Errorf("set-up run: %w", err)
		}
		w0, c0 := time.Now(), cpuNow()
		_, err := safeRun(run)
		c1 := cpuNow()
		b.spans.add("setup", "setup", len(cpu), w0, time.Now(), c1-c0)
		if err != nil {
			return cpu, fmt.Errorf("set-up run: %w", err)
		}
		cpu = append(cpu, (c1 - c0).Seconds())
	}
	return cpu, nil
}

// verify establishes the reference fingerprint from an unarmed run, then
// requires a Check-armed run of the workload's own config to report no
// violations and to reproduce that fingerprint exactly. It returns the
// fingerprint and the checked run's result.
func (b *bench) verify() (model, *hostsim.Result, error) {
	w0, c0 := time.Now(), cpuNow()
	defer func() { b.spans.add("verify", "verify", 0, w0, time.Now(), cpuNow()-c0) }()
	ref, err := safeRun(b.runWith(unarmed(b.cfg())))
	if err != nil {
		return model{}, nil, fmt.Errorf("unarmed reference run: %w", err)
	}
	want := modelOf(ref)
	cfg := b.cfg()
	cfg.Check = &hostsim.CheckOptions{Collect: true} // count violations instead of aborting
	res, err := safeRun(b.runWith(cfg))
	if err != nil {
		return model{}, nil, fmt.Errorf("checked run: %w", err)
	}
	if n := len(res.Violations); n > 0 {
		return want, res, fmt.Errorf("checked run: %d invariant violations, first: %v", n, res.Violations[0])
	}
	if d := want.diff(modelOf(res)); len(d) > 0 {
		return want, res, fmt.Errorf("checked run differs from unarmed run: %v", d)
	}
	return want, res, nil
}

// rtSample is the runtime's cumulative allocation and GC counters, or
// their growth over a loop.
type rtSample struct {
	allocs, allocBytes, gcCycles, gcCPUSec float64
}

func (r rtSample) sub(o rtSample) rtSample {
	return rtSample{r.allocs - o.allocs, r.allocBytes - o.allocBytes, r.gcCycles - o.gcCycles, r.gcCPUSec - o.gcCPUSec}
}

var rtMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		gcCPUSec:   s[3].Value.Float64(),
	}
}

// timed runs the workload's own config in a loop for dur and measures CPU
// per run. With exports set, every iteration also runs the armed
// observers' writers.
func (b *bench) timed(want model, exports []export, minIter int, dur time.Duration, phase string) loopStats {
	return loop(b.runWith(b.cfg()), want, exports, minIter, dur, dur+maxOverrun, b.spans, phase)
}

// allocsDuring runs fn and returns the heap objects and bytes allocated
// meanwhile. The runtime counts a span's allocations when the span leaves
// a P's cache, so a GC on both sides, which flushes every cache, makes the
// count exact.
func allocsDuring(fn func()) (objects, bytes float64) {
	runtime.GC()
	r0 := readRuntime()
	fn()
	runtime.GC()
	r1 := readRuntime()
	return r1.allocs - r0.allocs, r1.allocBytes - r0.allocBytes
}

// exportReps is how many runs the export phase times the writers on.
const exportReps = 15

// exportPhase times the armed observers' writers on exportReps fresh
// runs, apart from the timed loop so that run_cpu_ms and allocs_per_run
// measure Run alone. It returns empty stats when nothing is armed.
func (b *bench) exportPhase(want model) loopStats {
	if len(b.w.exports) == 0 {
		return loopStats{}
	}
	return b.timed(want, b.w.exports, exportReps, 0, "export")
}

// endToEnd is the untraced run: verification, then the timed loop in
// segments with a set-up block before each, then the export phase.
func (b *bench) endToEnd() (result, error) {
	want, _, verr := b.verify()
	if verr != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", verr)
	}
	var (
		setupCPU           []float64
		st                 loopStats
		allocs, allocBytes float64
		err                error
	)
	for i := 0; i < segments; i++ {
		if setupCPU, err = b.setupBlock(setupWall/segments, setupCPU); err != nil {
			return result{}, err
		}
		o, by := allocsDuring(func() {
			st = st.add(b.timed(want, nil, minSamplesP90/segments, b.dur/segments, "run"))
		})
		allocs += o
		allocBytes += by
	}
	ex := b.exportPhase(want)
	if len(st.cpu) == 0 {
		return result{}, errors.New("no iteration succeeded")
	}
	if len(st.cpu) < minSamplesP90 {
		fmt.Fprintf(os.Stderr, "simbench: only %d samples; p90 has %d beyond it\n", len(st.cpu), beyond(len(st.cpu), 0.9))
	}
	attempted, failed := st.attempted+ex.attempted, st.failed+ex.failed
	n := float64(st.attempted)
	p50 := percentile(st.cpu, 0.5)
	return result{
		correct:   verr == nil && failed == 0,
		attempted: attempted,
		failed:    failed,
		metrics: map[string]metric{
			"run_cpu_ms.p50":    {p50, "ms"},
			"run_cpu_ms.p90":    {percentile(st.cpu, 0.9), "ms"},
			"sim_us_per_cpu_ms": {float64(b.simulated().Microseconds()) / p50, "us/ms"},
			"setup_s":           {percentile(setupCPU, 0.5), "s"},
			"allocs_per_run":    {allocs / n, "objects"},
			"alloc_mb_per_run":  {allocBytes / n / 1e6, "MB"},
		},
		extra: map[string]metric{
			"export_cpu_ms.p50": {percentile(ex.export, 0.5), "ms"},
			"run_fail_ratio":    {float64(failed) / float64(attempted), "ratio"},
			"run_wall_ms.p50":   {percentile(st.wall, 0.5), "ms"},
			"samples":           {float64(len(st.cpu)), "count"},
			"setup_samples":     {float64(len(setupCPU)), "count"},
		},
	}, nil
}

// traced is the per-layer run. It splits b.dur into three phases over the
// same loop: an unprofiled baseline, a CPU-profiled phase and an
// allocation-profiled phase (MemProfileRate=1 makes every allocation
// expensive, so it would distort the CPU profile if the two overlapped).
// The profiled phases run the exports too, so on armed workloads the
// per-layer numbers cover run plus export.
func (b *bench) traced() (result, error) {
	if _, err := b.setupBlock(setupWall/segments, nil); err != nil {
		return result{}, err
	}
	want, checkRes, verr := b.verify()
	if verr != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", verr)
	}
	phase := b.dur / 3
	m := map[string]metric{}

	r0 := readRuntime()
	base := b.timed(want, nil, 3, phase, "base")
	rt := readRuntime().sub(r0)
	ex := b.exportPhase(want)
	m["runtime.gc_cycles"] = metric{rt.gcCycles / float64(base.attempted), "count"}
	m["runtime.gc_cpu_ms"] = metric{rt.gcCPUSec * 1e3 / float64(base.attempted), "ms"}
	m["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	prof, samples, err := b.cpuProfile(want, phase, m)
	if err != nil {
		return result{}, err
	}
	alloc, err := b.allocProfile(want, phase, m)
	if err != nil {
		return result{}, err
	}
	if len(base.cpu) == 0 || len(prof.cpu) == 0 {
		return result{}, errors.New("no iteration succeeded")
	}

	for k, v := range want.metrics() {
		m[k] = v
	}
	m["model.check_violations"] = metric{0, "count"}
	m["model.mtrace_messages"] = metric{0, "count"}
	if checkRes != nil {
		m["model.check_violations"] = metric{float64(len(checkRes.Violations)), "count"}
		if ml := checkRes.MessageLatency; ml != nil {
			m["model.mtrace_messages"] = metric{float64(ml.Count), "count"}
		}
	}

	baseP50 := percentile(base.cpu, 0.5)
	m["trace.overhead_ratio"] = metric{percentile(prof.cpu, 0.5) / baseP50, "ratio"}
	m["export_cpu_ms.p50"] = metric{percentile(ex.export, 0.5), "ms"}
	attempted := base.attempted + ex.attempted + prof.attempted + alloc.attempted
	failed := base.failed + ex.failed + prof.failed + alloc.failed
	m["run_fail_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}
	return result{
		correct:   verr == nil && failed == 0,
		attempted: attempted,
		failed:    failed,
		metrics:   m,
		extra: map[string]metric{
			"cpu_profile_samples": {float64(samples), "count"},
			"run_cpu_ms.p50":      {baseP50, "ms"},
		},
	}, nil
}

// cpuProfile runs the loop for dur under the CPU profiler and adds the
// cpu_ms.* split to m. It returns the loop's stats and the sample count.
func (b *bench) cpuProfile(want model, dur time.Duration, m map[string]metric) (loopStats, int64, error) {
	// StartCPUProfile keeps an earlier-set rate (and warns on stderr).
	runtime.SetCPUProfileRate(cpuProfileHz)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return loopStats{}, 0, fmt.Errorf("cpu profile: %w", err)
	}
	c0 := cpuNow()
	st := b.timed(want, b.w.exports, 3, dur, "cpu-profile")
	cpu := cpuNow() - c0
	pprof.StopCPUProfile()

	p, err := decodePprof(buf.Bytes())
	if err != nil {
		return st, 0, fmt.Errorf("cpu profile: %w", err)
	}
	vi, err := valueIndex(p, "cpu")
	if err != nil {
		return st, 0, err
	}
	ni, err := valueIndex(p, "samples")
	if err != nil {
		return st, 0, err
	}
	f := foldSamples(p.samples, vi)
	if err := f.check(); err != nil {
		return st, 0, fmt.Errorf("cpu profile: %w", err)
	}
	if f.total == 0 {
		return st, 0, errors.New("cpu profile has no samples")
	}
	// The kernel delivers at most one profiling signal per scheduler tick,
	// whatever rate was asked for, so the samples give each layer's share
	// and the measured CPU of the phase gives the scale.
	scale := ms(cpu) / float64(f.total) / float64(st.attempted)
	for _, l := range layers {
		m["cpu_ms."+l] = metric{float64(f.layer[l]) * scale, "ms"}
	}
	m["cpu_ms."+runtimeBG] = metric{float64(f.layer[runtimeBG]) * scale, "ms"}
	m["cpu_ms.total"] = metric{float64(f.total) * scale, "ms"}
	for _, c := range rtClasses {
		m["cpu_ms.rt."+c] = metric{float64(f.rt[c]) * scale, "ms"}
	}
	return st, foldSamples(p.samples, ni).total, nil
}

// allocProfile runs the loop for dur with every allocation recorded
// (MemProfileRate=1) and adds the allocs.* and alloc_kb.* split to m.
func (b *bench) allocProfile(want model, dur time.Duration, m map[string]metric) (loopStats, error) {
	// Recording is off (rate 0) while the snapshots are taken, so the
	// profile writer's own allocations stay out of the difference.
	oldRate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = oldRate }()
	runtime.MemProfileRate = 0
	before, err := allocSnapshot()
	if err != nil {
		return loopStats{}, err
	}
	runtime.MemProfileRate = 1
	st := b.timed(want, b.w.exports, 1, dur, "alloc-profile")
	runtime.MemProfileRate = 0
	after, err := allocSnapshot()
	if err != nil {
		return st, err
	}
	for _, a := range []struct {
		typ, prefix, unit string
		per               float64
	}{
		{"alloc_objects", "allocs.", "objects", 1},
		{"alloc_space", "alloc_kb.", "KB", 1024},
	} {
		vi, err := valueIndex(after, a.typ)
		if err != nil {
			return st, err
		}
		f := foldSamples(diffSamples(before.samples, after.samples, vi), vi)
		if err := f.check(); err != nil {
			return st, fmt.Errorf("alloc profile: %w", err)
		}
		scale := a.per * float64(st.attempted)
		for _, l := range layers {
			m[a.prefix+l] = metric{float64(f.layer[l]) / scale, a.unit}
		}
		m[a.prefix+runtimeBG] = metric{float64(f.layer[runtimeBG]) / scale, a.unit}
		m[a.prefix+"total"] = metric{float64(f.total) / scale, a.unit}
	}
	return st, nil
}

// allocSnapshot is the process's cumulative allocation profile, current as
// of a forced GC cycle (the runtime publishes it at GC).
func allocSnapshot() (*pprofData, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	p, err := decodePprof(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	return p, nil
}
