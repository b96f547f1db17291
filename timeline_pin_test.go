package hostsim_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"
	"time"

	"hostsim"
)

// Timeline hashes captured before the registry became columnar (one probe
// per block of columns instead of one closure per gauge). The registry
// refactor must leave every exported timeline byte-identical: column
// names, column order and values.
const (
	pinIncast64TimelineCSV   = "979d3683fb6758fbdd24f1543410756ef2cb1d8390619efaa7c7d8a7e7ca924a"
	pinIncast64TimelineJSONL = "5f7202ebfdb748e0145406f8c92f8d7e94ba4934f9d0fb663e84ad4d4ea3136a"
	pinIncast64FabricCSV     = "93fdfbd3795a77aac539ddb33249c53493da605386b6939631c5c0878f7f86d3"
	pinIncast64SocketCSV     = "dc0362efa0321b83c9215f17b45e7bd1466b2661624cc7f45beb738dcce43e7c"
	pinMixedTimelineCSV      = "8841325f8468495966df257e8cdaf4354f9c345727f120296e4668efcde96ff7"
	pinMixedTimelineJSONL    = "69100384f77c737b12c878837436c323b754518b3d92558552bc38ffa314bf57"
	pinMixedSocketCSV        = "276955be13e2c84d2612165a03088f360104700100b3680d13a2258d18f9adda"
)

// Hashes of the mixed-observed run's other exporters: pcapng, tcp_probe
// CSV, Chrome trace, folded stacks, message spans and the tail report.
// They pin that the pair's topology (a 2-host cluster whose switch drops
// only sender->receiver frames) keeps every artifact byte-identical to
// the dedicated-link pair they were captured on.
const (
	pinMixedPcap        = "f913737268eb19501401371e9f6bf9deb60fc614f6f06d5e143b43ed0f0aefb0"
	pinMixedProbeCSV    = "1aaa9cb5f517af923055865526e90c160d6fcb6ae3ef87f74c7b30f5f13efe13"
	pinMixedChromeTrace = "75a923fd5567098902600af6c1e5b8ca8f73f9889b7a8aa4ae9d17a8fffcf9ec"
	pinMixedFolded      = "991b87d489d00a7ad42fa8273fb4133277a3ba900b116464068511e13fc6e73c"
	pinMixedSpans       = "d385c41ed4441513befb71796fc79ea794ca66092f7c17a5ebcd5f70960a6cd4"
	pinMixedTailReport  = "7afa17e2333ebc55f8b57983b17f3cc66cdc4119ac95293a7b26d4d75448e6e0"
)

// writerHash returns the SHA-256 of what write emits.
func writerHash(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTimelineBytesPinned runs a telemetry-armed 64-host DCTCP incast
// (host, NIC, DDIO, per-core, per-flow and fabric columns, plus the
// fabric observatory's timeline and the ss-style socket snapshots) and a
// lossy mixed workload with every pair observer armed, and compares each
// timeline export, and the mixed run's other exports, with its pinned
// hash.
func TestTimelineBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("64-host run is not short")
	}
	fab := hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7, ECNMarkKB: 64,
		Warmup: 3 * time.Millisecond, Duration: 4 * time.Millisecond,
		Fabric:    &hostsim.FabricOptions{Hosts: 64, SharedBufferKB: 16384},
		FabricObs: &hostsim.FabricObsOptions{},
		Telemetry: &hostsim.Telemetry{},
		Inspect:   &hostsim.InspectOptions{SS: true},
	}
	fab.Stack.CC = "dctcp"
	mixed := hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7, LossRate: 0.005,
		Warmup: 8 * time.Millisecond, Duration: 12 * time.Millisecond,
		Check:       &hostsim.CheckOptions{Collect: true},
		Telemetry:   &hostsim.Telemetry{},
		Profile:     &hostsim.ProfileOptions{},
		MsgTrace:    &hostsim.MsgTraceOptions{},
		Inspect:     &hostsim.InspectOptions{},
		TraceEvents: 4096,
		TraceSpans:  true,
	}
	for _, tc := range []struct {
		name string
		cfg  hostsim.Config
		wl   hostsim.Workload
		pins func(r *hostsim.Result) []pinnedExport
	}{
		{"incast64", fab, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), func(r *hostsim.Result) []pinnedExport {
			return []pinnedExport{
				{"Timeline.WriteCSV", r.Timeline.WriteCSV, pinIncast64TimelineCSV},
				{"Timeline.WriteJSONL", r.Timeline.WriteJSONL, pinIncast64TimelineJSONL},
				{"FabricTimeline.WriteCSV", r.FabricTimeline.WriteCSV, pinIncast64FabricCSV},
				{"SocketSnapshots.WriteCSV", r.SocketSnapshots.WriteCSV, pinIncast64SocketCSV},
			}
		}},
		{"mixed-observed", mixed, hostsim.MixedWorkload(16, 4096), func(r *hostsim.Result) []pinnedExport {
			return []pinnedExport{
				{"Timeline.WriteCSV", r.Timeline.WriteCSV, pinMixedTimelineCSV},
				{"Timeline.WriteJSONL", r.Timeline.WriteJSONL, pinMixedTimelineJSONL},
				{"SocketSnapshots.WriteCSV", r.SocketSnapshots.WriteCSV, pinMixedSocketCSV},
				{"WritePcap", r.WritePcap, pinMixedPcap},
				{"WriteProbeCSV", r.WriteProbeCSV, pinMixedProbeCSV},
				{"WriteChromeTrace", r.WriteChromeTrace, pinMixedChromeTrace},
				{"WriteFolded", r.WriteFolded, pinMixedFolded},
				{"WriteSpans", r.WriteSpans, pinMixedSpans},
				{"WriteTailReport", r.WriteTailReport, pinMixedTailReport},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := hostsim.Run(tc.cfg, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.pins(res) {
				if got := writerHash(t, p.write); got != p.want {
					t.Errorf("%s hash moved:\n got: %s\nwant: %s", p.name, got, p.want)
				}
			}
		})
	}
}

// pinnedExport is one timeline writer and its pinned output hash.
type pinnedExport struct {
	name  string
	write func(io.Writer) error
	want  string
}
