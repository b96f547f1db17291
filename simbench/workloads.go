package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hostsim"
)

// workload is one named benchmark input: the Config and Workload handed to
// hostsim.Run (the seed is filled in per run), plus the public writers of
// whatever observers the config arms.
type workload struct {
	name string
	why  string
	cfg  hostsim.Config
	wl   hostsim.Workload
	// exports lists the armed observers' public writers; empty when the
	// workload arms no observer.
	exports []export
}

// export is one public artifact writer of an armed observer.
type export struct {
	name  string
	write func(*hostsim.Result, io.Writer) error
}

// pairCfg is the 8 ms + 12 ms direct-link window the pair workloads share
// with the repository's scenario benchmarks.
func pairCfg() hostsim.Config {
	return hostsim.Config{
		Stack:    hostsim.AllOptimizations(),
		Warmup:   8 * time.Millisecond,
		Duration: 12 * time.Millisecond,
	}
}

// workloads is the benchmark's fixed set. Each stresses different layers;
// README.md in this directory gives the reasoning per workload.
func workloads() []workload {
	bulk := workload{
		name: "pair-bulk",
		why:  "one CUBIC long flow on the direct link: the per-byte path (TSO/GRO, copy, DDIO cache model); bypasses fabric, observers and loss recovery",
		cfg:  pairCfg(),
		wl:   hostsim.LongFlowWorkload(hostsim.PatternSingle, 1),
	}

	rpc := workload{
		name: "rpc-incast",
		why:  "16 clients of 4 KB ping-pong RPCs: the same layers per message instead of per byte, with delayed-ACK and wakeup timer churn",
		cfg:  pairCfg(),
		wl:   hostsim.RPCIncastWorkload(16, 4096),
	}

	fabCfg := hostsim.Config{
		Stack:     hostsim.AllOptimizations(),
		ECNMarkKB: 64,
		Warmup:    3 * time.Millisecond,
		Duration:  4 * time.Millisecond,
		Fabric:    &hostsim.FabricOptions{Hosts: 64, SharedBufferKB: 16384},
		FabricObs: &hostsim.FabricObsOptions{},
		Telemetry: &hostsim.Telemetry{},
	}
	fabCfg.Stack.CC = "dctcp"
	fab := workload{
		name: "fabric-incast64",
		why:  "64-host 63:1 DCTCP incast through the shared-buffer ToR with the fabric observatory and telemetry armed: cluster setup, mem and GC",
		cfg:  fabCfg,
		wl:   hostsim.LongFlowWorkload(hostsim.PatternIncast, 0),
		exports: []export{
			{"WriteFabricReport", (*hostsim.Result).WriteFabricReport},
			{"WriteFabricReportJSONL", (*hostsim.Result).WriteFabricReportJSONL},
			{"WriteFabricTrace", (*hostsim.Result).WriteFabricTrace},
			{"FabricTimeline.WriteCSV", func(r *hostsim.Result, w io.Writer) error { return r.FabricTimeline.WriteCSV(w) }},
			{"Timeline.WriteCSV", func(r *hostsim.Result, w io.Writer) error { return r.Timeline.WriteCSV(w) }},
		},
	}

	mixCfg := pairCfg()
	mixCfg.LossRate = 0.005
	mixCfg.Check = &hostsim.CheckOptions{Collect: true}
	mixCfg.Telemetry = &hostsim.Telemetry{}
	mixCfg.Profile = &hostsim.ProfileOptions{}
	mixCfg.MsgTrace = &hostsim.MsgTraceOptions{}
	mixCfg.Inspect = &hostsim.InspectOptions{}
	mixCfg.TraceEvents = 4096
	mixCfg.TraceSpans = true
	mix := workload{
		name: "mixed-observed",
		why:  "one long flow plus 16 RPC flows at 0.5% loss with every pair observer armed: the observer layers, their exporters and TCP loss recovery",
		cfg:  mixCfg,
		wl:   hostsim.MixedWorkload(16, 4096),
		exports: []export{
			{"WritePprof", (*hostsim.Result).WritePprof},
			{"WriteFolded", (*hostsim.Result).WriteFolded},
			{"WritePcap", (*hostsim.Result).WritePcap},
			{"WriteProbeCSV", (*hostsim.Result).WriteProbeCSV},
			{"WriteProbeJSONL", (*hostsim.Result).WriteProbeJSONL},
			{"WriteSocketCSV", (*hostsim.Result).WriteSocketCSV},
			{"WriteTailReport", (*hostsim.Result).WriteTailReport},
			{"WriteSpans", (*hostsim.Result).WriteSpans},
			{"WriteChromeTrace", (*hostsim.Result).WriteChromeTrace},
			{"Timeline.WriteCSV", func(r *hostsim.Result, w io.Writer) error { return r.Timeline.WriteCSV(w) }},
		},
	}
	return []workload{bulk, rpc, fab, mix}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// unarmed strips every observer from cfg. Observers are pure reads, so the
// unarmed run's model fingerprint is the reference every armed run must
// reproduce exactly.
func unarmed(cfg hostsim.Config) hostsim.Config {
	cfg.Check = nil
	cfg.Telemetry = nil
	cfg.Profile = nil
	cfg.MsgTrace = nil
	cfg.Inspect = nil
	cfg.FabricObs = nil
	cfg.TraceEvents = 0
	cfg.TraceSpans = false
	return cfg
}

// model is a run's simulated outcome: exact for a given seed and
// independent of the host the simulator runs on. Armed observers must not
// change it, and a speed-only change must leave it identical.
type model struct {
	GoodputGbps     float64
	RPCCompleted    int64
	TCPSentMB       float64
	TCPRetxRatio    float64
	TCPTimeouts     int64
	NICDrops        int64
	SKBAvgKB        float64
	CopyMissRate    float64
	BusyCores       float64
	FabricInFrames  int64
	FabricDropRatio float64
	FabricCEMarks   int64
}

func modelOf(r *hostsim.Result) model {
	m := model{
		GoodputGbps:  r.ThroughputGbps,
		RPCCompleted: r.RPCCompleted,
		SKBAvgKB:     r.Receiver.SKBAvgBytes / 1024,
		CopyMissRate: r.Receiver.CacheMissRate,
	}
	var sent, retx int64
	for _, f := range r.Flows {
		sent += f.SentBytes
		retx += f.RetransBytes
		m.TCPTimeouts += f.Timeouts
	}
	m.TCPSentMB = float64(sent) / 1e6
	if sent > 0 {
		m.TCPRetxRatio = float64(retx) / float64(sent)
	}
	for _, h := range r.Hosts {
		m.NICDrops += h.NICDrops
		m.BusyCores += h.BusyCores
	}
	if f := r.Fabric; f != nil {
		m.FabricInFrames = f.InFrames
		m.FabricCEMarks = f.Marked
		if f.InFrames > 0 {
			m.FabricDropRatio = float64(f.BufferDrops+f.LossDrops) / float64(f.InFrames)
		}
	}
	return m
}

// metrics renders the fingerprint under its model.* names.
func (m model) metrics() map[string]metric {
	return map[string]metric{
		"model.goodput_gbps":      {m.GoodputGbps, "Gbps"},
		"model.rpc_completed":     {float64(m.RPCCompleted), "count"},
		"model.tcp_sent_mb":       {m.TCPSentMB, "MB"},
		"model.tcp_retx_ratio":    {m.TCPRetxRatio, "ratio"},
		"model.tcp_timeouts":      {float64(m.TCPTimeouts), "count"},
		"model.nic_drops":         {float64(m.NICDrops), "count"},
		"model.skb_avg_kb":        {m.SKBAvgKB, "KB"},
		"model.copy_miss_rate":    {m.CopyMissRate, "ratio"},
		"model.busy_cores":        {m.BusyCores, "cores"},
		"model.fabric_in_frames":  {float64(m.FabricInFrames), "count"},
		"model.fabric_drop_ratio": {m.FabricDropRatio, "ratio"},
		"model.fabric_ce_marks":   {float64(m.FabricCEMarks), "count"},
	}
}

// diff names the fingerprint fields on which got differs from m.
func (m model) diff(got model) []string {
	want, have := m.metrics(), got.metrics()
	var out []string
	for k, v := range want {
		if have[k].Value != v.Value {
			out = append(out, fmt.Sprintf("%s %v != %v", k, have[k].Value, v.Value))
		}
	}
	sort.Strings(out)
	return out
}
