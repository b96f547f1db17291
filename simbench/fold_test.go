package main

import (
	"bytes"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hostsim/internal/sim.(*Engine).Run":               "sim",
		"hostsim/internal/core.(*Host).Receive.func1":      "core",
		"hostsim/internal/fabricobs.WriteTrace":            "fabricobs",
		"hostsim.Run":                                      "hostsim",
		"hostsim.(*Result).WritePcap":                      "hostsim",
		"main.loop":                                        "bench",
		"hostsim/simbench.safeRun":                         "bench",
		"runtime.mallocgc":                                 "",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "",
		"strconv.FormatFloat":                              "",
		"hostsim/internal/sim.(*heapq[go.shape.int]).push": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldSyntheticStacks(t *testing.T) {
	samples := []stackSample{
		// A runtime leaf is charged to the repository frame that called it.
		{[]string{"main.main", "hostsim.Run", "hostsim/internal/sim.(*Engine).Run", "hostsim/internal/mem.(*Allocator).AppendAlloc", "runtime.growslice", "runtime.mallocgc"}, []int64{1, 30}},
		// The innermost repository frame wins over outer ones.
		{[]string{"main.main", "hostsim.Run", "hostsim/internal/sim.(*Engine).Run", "hostsim/internal/cache.(*DCA).Probe", "internal/runtime/maps.(*Map).getWithKeySmall"}, []int64{1, 20}},
		// A stack with no repository frame is runtime background work.
		{[]string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.scanobject"}, []int64{1, 40}},
		{[]string{"runtime._System"}, []int64{1, 5}},
		// A repository leaf charges its own layer and no runtime class.
		{[]string{"main.main", "hostsim.Run", "hostsim/internal/sim.(*Engine).Run"}, []int64{1, 5}},
		{nil, []int64{1, 0}},
	}
	f := foldSamples(samples, 1)
	want := map[string]int64{"mem": 30, "cache": 20, runtimeBG: 45, "sim": 5}
	for l, v := range want {
		if f.layer[l] != v {
			t.Errorf("layer %s = %d, want %d", l, f.layer[l], v)
		}
	}
	if f.total != 100 {
		t.Errorf("total = %d, want 100", f.total)
	}
	if err := f.check(); err != nil {
		t.Errorf("check: %v", err)
	}
	wantRT := map[string]int64{"malloc": 30, "map": 20, "gc": 40}
	for c, v := range wantRT {
		if f.rt[c] != v {
			t.Errorf("rt.%s = %d, want %d", c, f.rt[c], v)
		}
	}
	if f.rt["memmove"] != 0 {
		t.Errorf("rt.memmove = %d, want 0", f.rt["memmove"])
	}
}

func TestFoldCheckRejectsUnknownLayer(t *testing.T) {
	f := foldSamples([]stackSample{{[]string{"hostsim/internal/validate.Run"}, []int64{7}}}, 0)
	if err := f.check(); err == nil {
		t.Fatal("check accepted a sample charged to a package off the Run path")
	}
}

func TestDiffSamples(t *testing.T) {
	before := []stackSample{
		{[]string{"a", "b"}, []int64{10, 100}},
		{[]string{"a", "c"}, []int64{5, 50}},
	}
	after := []stackSample{
		{[]string{"a", "b"}, []int64{12, 130}},
		{[]string{"a", "b"}, []int64{1, 10}}, // a second record of the same stack
		{[]string{"a", "c"}, []int64{5, 50}},
		{[]string{"a", "d"}, []int64{3, 30}},
	}
	got := map[string]int64{}
	for _, s := range diffSamples(before, after, 1) {
		got[s.stack[len(s.stack)-1]] += s.values[1]
	}
	want := map[string]int64{"b": 40, "d": 30}
	if len(got) != len(want) || got["b"] != 40 || got["d"] != 30 {
		t.Errorf("diff = %v, want %v", got, want)
	}
}

// synthProfile hand-encodes a CPU profile.proto with one sample whose leaf
// location holds an inlined call: strconv.FormatFloat inlined into
// telemetry's WriteCSV, called from the harness.
func synthProfile() []byte {
	field := func(b []byte, num int, payload []byte) []byte {
		b = binary.AppendUvarint(b, uint64(num)<<3|2)
		b = binary.AppendUvarint(b, uint64(len(payload)))
		return append(b, payload...)
	}
	varint := func(b []byte, num int, v uint64) []byte {
		b = binary.AppendUvarint(b, uint64(num)<<3)
		return binary.AppendUvarint(b, v)
	}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	var p []byte
	p = field(p, 1, varint(varint(nil, 1, 1), 2, 2)) // samples/count
	p = field(p, 1, varint(varint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	p = field(p, 2, field(field(nil, 1, packed(1, 2)), 2, packed(1, 1000)))
	line := func(fn uint64) []byte { return varint(nil, 1, fn) }
	p = field(p, 4, field(field(varint(nil, 1, 1), 4, line(1)), 4, line(2)))
	p = field(p, 4, field(varint(nil, 1, 2), 4, line(3)))
	p = field(p, 5, varint(varint(nil, 1, 1), 2, 5))
	p = field(p, 5, varint(varint(nil, 1, 2), 2, 6))
	p = field(p, 5, varint(varint(nil, 1, 3), 2, 7))
	for _, str := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"strconv.FormatFloat", "hostsim/internal/telemetry.(*Timeline).WriteCSV", "main.writeExports"} {
		p = field(p, 6, []byte(str))
	}
	return p
}

func TestDecodePprofKeepsInlinedFrames(t *testing.T) {
	p, err := decodePprof(synthProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.types) != 2 || p.types[0] != "samples" || p.types[1] != "cpu" {
		t.Fatalf("sample types %v", p.types)
	}
	if len(p.samples) != 1 {
		t.Fatalf("%d samples, want 1", len(p.samples))
	}
	s := p.samples[0]
	want := []string{"main.writeExports", "hostsim/internal/telemetry.(*Timeline).WriteCSV", "strconv.FormatFloat"}
	if strings.Join(s.stack, ";") != strings.Join(want, ";") {
		t.Errorf("stack %v, want %v", s.stack, want)
	}
	if len(s.values) != 2 || s.values[1] != 1000 {
		t.Errorf("values %v, want [1 1000]", s.values)
	}
	if l := chargeLayer(s.stack); l != "telemetry" {
		t.Errorf("charged to %q, want telemetry", l)
	}
}

func TestDecodePprofRejectsMalformed(t *testing.T) {
	good := synthProfile()
	if _, err := decodePprof(good[:len(good)-3]); err == nil {
		t.Error("decoded a truncated profile")
	}
	if _, err := decodePprof(append(append([]byte(nil), good...), 0x0b)); err == nil {
		t.Error("decoded a profile with an unsupported wire type")
	}
}

// TestDecodePprofRuntimeProfile decodes the runtime's own allocation
// profile of this process.
func TestDecodePprofRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := decodePprof(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := valueIndex(p, "alloc_space"); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.samples {
		if len(s.values) != len(p.types) || len(s.stack) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
	}
}
