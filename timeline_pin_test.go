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

// Hashes of the exports that the tests above did not yet pin: the
// incast64 run's fabric ledger (CSV, JSONL and text) and fabric Chrome
// trace, and the mixed-observed run's pprof profile, tcp_probe JSONL and
// socket-snapshot JSONL. The tests that check each export's structure
// run on runs like these, so together with the pins every pinned byte is
// known to pass those checks.
const (
	pinIncast64FabricReport      = "941194d633dca228c8a5dc059c49b19e2cd0751ef283c2583a2df5c90bf10c29"
	pinIncast64FabricReportJSONL = "7d9380ce36073c0f4b59934b38759c0423a4f9c99a47f550f345f81679d9a953"
	pinIncast64FabricTrace       = "07fc6f04a300d4a360db6f54d20cc5b51e1356c6bc0948c51f2adb1b59f2ae03"
	pinIncast64FabricReportText  = "c9f99a5df0293f483ddf16a317be8bfc560e490f0b1e05d41741258043f097e3"
	pinMixedPprof                = "b8952d8b58baf43237ca8fadbc2b35dcfa1c87ac5ab0bdd9e6a61e5de206bf11"
	pinMixedProbeJSONL           = "a91063cde11f1cb5c575eda9a421a0cb96e7e7d009ab908fb243d6c559db6d10"
	pinMixedSocketJSONL          = "c25452e5b53b71388f97a2150bbb074c55654a28e6fbeff9174d2abc26d332b8"
)

// writerHash returns the SHA-256 of what write emits.
func writerHash(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(exportBytes(t, write)))
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
				{"WriteFabricReport", r.WriteFabricReport, pinIncast64FabricReport},
				{"WriteFabricReportJSONL", r.WriteFabricReportJSONL, pinIncast64FabricReportJSONL},
				{"WriteFabricTrace", r.WriteFabricTrace, pinIncast64FabricTrace},
				{"FormatFabricReport", func(w io.Writer) error {
					_, err := io.WriteString(w, r.FormatFabricReport())
					return err
				}, pinIncast64FabricReportText},
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
				{"WritePprof", r.WritePprof, pinMixedPprof},
				{"WriteProbeJSONL", r.WriteProbeJSONL, pinMixedProbeJSONL},
				{"SocketSnapshots.WriteJSONL", r.SocketSnapshots.WriteJSONL, pinMixedSocketJSONL},
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
