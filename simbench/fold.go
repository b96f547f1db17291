package main

import (
	"fmt"
	"strings"
)

// layers are the packages on the hostsim.Run path, plus the root package
// (hostsim) and this harness (bench). Every profile sample is charged to
// exactly one of them or to runtimeBG.
var layers = []string{
	"sim", "core", "tcp", "nic", "mem", "cache", "exec", "skb", "wire",
	"fabric", "workload", "topology", "cpumodel", "metrics", "units",
	"stage", "check", "telemetry", "profile", "mtrace", "inspect",
	"fabricobs", "trace", "hostsim", "bench",
}

// runtimeBG collects samples with no repository frame on the stack: GC
// workers, the scheduler, and other runtime background work.
const runtimeBG = "runtime_bg"

// layerOf maps a frame's function name to its layer, or "" for a frame
// outside the repository (the Go runtime and standard library).
func layerOf(fn string) string {
	const internal = "hostsim/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case strings.HasPrefix(fn, "hostsim."):
		return "hostsim"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "hostsim/simbench"):
		return "bench"
	}
	return ""
}

// chargeLayer is the layer a stack (root first) is charged to: its
// innermost repository frame, so runtime helpers (malloc, map, memmove,
// GC assists) count against the layer that called them.
func chargeLayer(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if l := layerOf(stack[i]); l != "" {
			return l
		}
	}
	return runtimeBG
}

// runtimeLeaf classes a leaf frame as one of the runtime self-time
// buckets reported as cpu_ms.rt.<class>, whoever called it. Rules are
// checked in order; "" means the leaf is in none of them.
var runtimeLeaf = []struct{ class, prefix string }{
	{"map", "runtime.map"},
	{"map", "internal/runtime/maps."},
	{"map", "runtime.memhash"},
	{"map", "runtime.strhash"},
	{"map", "runtime.aeshash"},
	{"memmove", "runtime.memmove"},
	{"memmove", "runtime.typedmemmove"},
	{"memmove", "runtime.typedslicecopy"},
	{"memmove", "runtime.memclr"},
	{"gc", "runtime.gc"},
	{"gc", "runtime.scan"},
	{"gc", "runtime.greyobject"},
	{"gc", "runtime.markroot"},
	{"gc", "runtime.findObject"},
	{"gc", "runtime.(*gcWork)"},
	{"gc", "runtime.(*gcBits)"},
	{"gc", "runtime.(*gcControllerState)"},
	{"gc", "runtime.wbBuf"},
	{"gc", "runtime.bulkBarrier"},
	{"gc", "runtime.typePointers"},
	{"gc", "runtime.(*mspan).typePointers"},
	{"gc", "runtime.spanOf"},
	{"gc", "runtime.pageIndexOf"},
	{"gc", "runtime.sweepone"},
	{"gc", "runtime.bgsweep"},
	{"gc", "runtime.(*sweepLocked)"},
	{"gc", "runtime.(*mspan).sweep"},
	{"malloc", "runtime.malloc"},
	{"malloc", "runtime.newobject"},
	{"malloc", "runtime.makeslice"},
	{"malloc", "runtime.makemap"},
	{"malloc", "runtime.growslice"},
	{"malloc", "runtime.nextFreeFast"},
	{"malloc", "runtime.heapSetType"},
	{"malloc", "runtime.(*mcache)"},
	{"malloc", "runtime.(*mcentral)"},
	{"malloc", "runtime.(*mheap)"},
	{"malloc", "runtime.(*mspan)"},
	{"malloc", "runtime.profilealloc"},
}

// rtClasses are the cpu_ms.rt.<class> buckets in report order.
var rtClasses = []string{"malloc", "gc", "map", "memmove"}

func runtimeClass(leaf string) string {
	for _, r := range runtimeLeaf {
		if strings.HasPrefix(leaf, r.prefix) {
			return r.class
		}
	}
	return ""
}

// folded is a profile charged by layer: the sum of one sample value per
// layer and per runtime leaf class, with the profile's total.
type folded struct {
	layer map[string]int64
	rt    map[string]int64
	total int64
}

// valueIndex finds the sample value named typ (e.g. "cpu", "alloc_space").
func valueIndex(p *pprofData, typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type", typ)
}

// foldSamples charges each sample's value at index vi to its layer and,
// when its leaf is a runtime helper, to that runtime class.
func foldSamples(samples []stackSample, vi int) folded {
	f := folded{layer: map[string]int64{}, rt: map[string]int64{}}
	for _, s := range samples {
		v := s.values[vi]
		f.layer[chargeLayer(s.stack)] += v
		f.total += v
		if len(s.stack) > 0 {
			if c := runtimeClass(s.stack[len(s.stack)-1]); c != "" {
				f.rt[c] += v
			}
		}
	}
	return f
}

// check reports an error if a layer outside the known list was charged or
// the charged layers do not sum to the total.
func (f folded) check() error {
	known := map[string]bool{runtimeBG: true}
	for _, l := range layers {
		known[l] = true
	}
	var sum int64
	for l, v := range f.layer {
		if !known[l] {
			return fmt.Errorf("samples charged to unknown layer %q", l)
		}
		sum += v
	}
	if sum != f.total {
		return fmt.Errorf("layers sum to %d, profile total %d", sum, f.total)
	}
	return nil
}

// diffSamples subtracts a cumulative profile snapshot (before) from a later
// one (after), stack by stack, for the value at index vi. The allocation
// profile is cumulative over the process, so this isolates one phase.
// Records are keyed by their function-name stack, since several records
// (distinct lines of one function) can share one.
func diffSamples(before, after []stackSample, vi int) []stackSample {
	delta := map[string]int64{}
	stacks := map[string][]string{}
	for _, s := range after {
		k := strings.Join(s.stack, ";")
		delta[k] += s.values[vi]
		stacks[k] = s.stack
	}
	for _, s := range before {
		delta[strings.Join(s.stack, ";")] -= s.values[vi]
	}
	var out []stackSample
	for k, d := range delta {
		if d != 0 {
			vals := make([]int64, vi+1)
			vals[vi] = d
			out = append(out, stackSample{stacks[k], vals})
		}
	}
	return out
}
