package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hostsim"
)

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can drive netsim's own flag parsing and file writing in a child
// process.
const runMainEnv = "NETSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// netsimCmd builds the command that runs netsim with args in a child
// process.
func netsimCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// netsim runs the command with args and returns its standard output.
func netsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := netsimCmd(args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("netsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// export is one output file and the Result writer it must match.
type export struct {
	file  string
	write func(io.Writer) error
}

// checkExports compares each file in dir with what its writer emits; an
// empty file fails too.
func checkExports(t *testing.T, dir string, exports []export) {
	t.Helper()
	for _, e := range exports {
		got, err := os.ReadFile(filepath.Join(dir, e.file))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := e.write(&want); err != nil {
			t.Fatalf("%s: %v", e.file, err)
		}
		if len(got) == 0 || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: %d bytes, differs from the Result writer's %d bytes", e.file, len(got), want.Len())
		}
	}
}

func run(t *testing.T, cfg hostsim.Config, wl hostsim.Workload) *hostsim.Result {
	t.Helper()
	res, err := hostsim.Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOutputFlags drives every file-writing flag through two netsim
// runs, a lossy RPC pair with every pair observer and an 8-host incast
// with every fabric output, and checks that each file is byte-equal to
// the matching writer of hostsim.Run on the Config the flags denote. A
// third invocation pairs output flags with -seeds, which reports only a
// seed summary, and must fail without writing anything.
func TestOutputFlags(t *testing.T) {
	dir := t.TempDir()
	out := func(file string) string { return filepath.Join(dir, file) }
	const sampleEvery = 100 * time.Microsecond

	t.Run("pair", func(t *testing.T) {
		stdout := netsim(t, "-workload", "rpc", "-rpcclients", "8", "-rpcsize", "65536",
			"-loss", "0.01", "-warmup", "2ms", "-dur", "20ms", "-seed", "7", "-latency-breakdown",
			"-profile-out", out("cycles.pb.gz"), "-folded-out", out("cycles.folded"),
			"-telemetry-out", out("pair.tel.jsonl"), "-trace-out", out("trace.json"),
			"-pcap-out", out("wire.pcapng"), "-probe-out", out("probe.jsonl"), "-ss-out", out("ss.csv"),
			"-mtrace-out", out("spans.json"), "-tail-report", out("tail.txt"))
		res := run(t, hostsim.Config{
			Stack: hostsim.AllOptimizations(), LossRate: 0.01, Seed: 7,
			Warmup: 2 * time.Millisecond, Duration: 20 * time.Millisecond,
			TraceEvents: 1 << 16, TraceSpans: true,
			Telemetry: &hostsim.Telemetry{SampleInterval: sampleEvery},
			Profile:   &hostsim.ProfileOptions{},
			Inspect:   &hostsim.InspectOptions{Pcap: true, Probe: true, SS: true, SSInterval: sampleEvery},
			MsgTrace:  &hostsim.MsgTraceOptions{Slowest: 8},
		}, hostsim.RPCIncastWorkload(8, 65536))
		checkExports(t, dir, []export{
			{"cycles.pb.gz", res.WritePprof},
			{"cycles.folded", res.WriteFolded},
			{"pair.tel.jsonl", res.Timeline.WriteJSONL},
			{"trace.json", res.WriteChromeTrace},
			{"wire.pcapng", res.WritePcap},
			{"probe.jsonl", res.WriteProbeJSONL},
			{"ss.csv", res.WriteSocketCSV},
			{"spans.json", res.WriteSpans},
			{"tail.txt", res.WriteTailReport},
		})
		if want := "\n--- per-packet latency breakdown ---\n" + res.LatencyBreakdown.Format(); !strings.Contains(stdout, want) {
			t.Errorf("-latency-breakdown: stdout lacks the breakdown table\n--- want ---%s--- stdout ---\n%s", want, stdout)
		}
	})

	t.Run("fabric", func(t *testing.T) {
		netsim(t, "-fabric-hosts", "8", "-fabric-buffer-kb", "256", "-pattern", "incast",
			"-dur", "10ms", "-warmup", "5ms", "-check", "-burst-kb", "64",
			"-fabric-report", out("fab.csv"), "-fabric-ts-out", out("fabts.csv"),
			"-fabric-trace-out", out("fab.json"), "-telemetry-out", out("fab.tel.csv"))
		res := run(t, hostsim.Config{
			Stack: hostsim.AllOptimizations(), Seed: 1,
			Warmup: 5 * time.Millisecond, Duration: 10 * time.Millisecond,
			Check:     &hostsim.CheckOptions{},
			Telemetry: &hostsim.Telemetry{SampleInterval: sampleEvery},
			Fabric:    &hostsim.FabricOptions{Hosts: 8, SharedBufferKB: 256},
			FabricObs: &hostsim.FabricObsOptions{SampleInterval: sampleEvery, BurstThresholdKB: 64},
		}, hostsim.LongFlowWorkload(hostsim.PatternIncast, 1))
		checkExports(t, dir, []export{
			{"fab.csv", res.WriteFabricReport},
			{"fabts.csv", res.FabricTimeline.WriteCSV},
			{"fab.json", res.WriteFabricTrace},
			{"fab.tel.csv", res.Timeline.WriteCSV},
		})
		// Every line of the host+fabric timeline has the header's field
		// count, and there is at least one sample.
		tel, err := os.ReadFile(out("fab.tel.csv"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(tel), "\n"), "\n")
		if len(lines) < 2 {
			t.Fatal("-telemetry-out: no samples")
		}
		n := strings.Count(lines[0], ",")
		for i, line := range lines {
			if c := strings.Count(line, ","); c != n {
				t.Errorf("-telemetry-out line %d: %d fields, header has %d", i+1, c+1, n+1)
			}
		}
	})
	t.Run("seeds", func(t *testing.T) {
		pcap := out("seeds.pcapng")
		cmd := netsimCmd("-seeds", "2", "-warmup", "1ms", "-dur", "1ms",
			"-pcap-out", pcap, "-latency-breakdown")
		if outb, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("-seeds 2 with output flags exited 0:\n%s", outb)
		}
		if _, err := os.Stat(pcap); !os.IsNotExist(err) {
			t.Errorf("-pcap-out under -seeds: stat %s = %v, want no file", pcap, err)
		}
	})
}
