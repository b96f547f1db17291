package hostsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/fabricobs"
)

// fpHash compresses a fabric fingerprint to a pinnable hex digest (the
// raw strings run to kilobytes on 16-host runs).
func fpHash(r *hostsim.Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fabricFingerprint(r))))
}

// Pre-observatory fingerprints of the checker-armed incast runs below,
// captured before the fabricobs hooks existed. They pin two properties
// at once: adding the observer hook points did not move a single
// measurement of an unobserved run, and arming the observatory does not
// either.
const (
	fabObsPin8  = "5b181928400a506e7be914b765596f0be8471654e4fde7edc0293584f89ed99d"
	fabObsPin16 = "eedb1a375d474bdb9a3c26fb4d93637cd5a44513324aea2604b2c3594add279c"
)

// TestFabricObsTransparency is the observatory's anchor property: a
// checker-armed incast must produce byte-identical measurements with the
// observatory off and on, and both must match the pre-PR pin — the
// telemetry layer observes the run without perturbing it.
func TestFabricObsTransparency(t *testing.T) {
	for _, tc := range []struct {
		hosts int
		pin   string
	}{{8, fabObsPin8}, {16, fabObsPin16}} {
		t.Run(fmt.Sprintf("%dhosts", tc.hosts), func(t *testing.T) {
			wl := hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
			off, err := hostsim.Run(fabCfg(tc.hosts), wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fabCfg(tc.hosts)
			cfg.FabricObs = &hostsim.FabricObsOptions{}
			on, err := hostsim.Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fpHash(off), fpHash(on); a != b {
				t.Errorf("arming the observatory changed the physics:\n off: %s\n  on: %s", a, b)
			}
			if h := fpHash(off); h != tc.pin {
				t.Errorf("unobserved %d-host run diverged from the pre-observatory pin:\n got: %s\nwant: %s",
					tc.hosts, h, tc.pin)
			}
			if len(on.PortReports) != tc.hosts {
				t.Errorf("got %d port reports, want %d", len(on.PortReports), tc.hosts)
			}
			if off.PortReports != nil || off.FabricTimeline != nil {
				t.Error("unobserved run carries observatory artifacts")
			}
		})
	}
}

// TestFabricObsLedgerReconciliation runs the full loss zoo — shared-buffer
// admission drops, Bernoulli wire loss and DCTCP ECN marks — with the
// conservation checker armed fail-fast, then reconciles the observatory's
// per-port ledger against it: each port satisfies the checker's
// in == forwarded + admission_drops rule and the egress conservation
// identity, and the ledger sums reproduce the switch totals exactly.
// The ledger's CSV and JSONL exports and the time-series' CSV and JSONL
// exports must each parse back to the Result's values and pass
// checkLedger and checkFabricTimeline.
func TestFabricObsLedgerReconciliation(t *testing.T) {
	cfg := fabCfg(8)
	cfg.Fabric.SharedBufferKB = 256
	cfg.FabricObs = &hostsim.FabricObsOptions{BurstThresholdKB: 16} // three bursts on the incast port
	cfg.LossRate = 0.001
	cfg.ECNMarkKB = 64
	cfg.Stack.CC = "dctcp"
	res, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err) // checker fail-fast: any conservation break lands here
	}
	checkLedger(t, "Result", res.PortReports, res.BurstEvents)
	var in, adm, loss, del, marks, inflight int64
	for _, p := range res.PortReports {
		in += p.InFrames
		adm += p.AdmissionDrops
		loss += p.WireLossDrops
		del += p.Delivered
		marks += p.ECNMarks
		inflight += p.InFlight
	}
	fab := res.Fabric
	if in != fab.InFrames || adm != fab.BufferDrops || loss != fab.LossDrops ||
		marks != fab.Marked || del != fab.Delivered {
		t.Errorf("ledger sums diverge from switch totals:\nledger: in=%d adm=%d loss=%d del=%d marks=%d\ntotals: in=%d adm=%d loss=%d del=%d marks=%d",
			in, adm, loss, del, marks,
			fab.InFrames, fab.BufferDrops, fab.LossDrops, fab.Delivered, fab.Marked)
	}
	if adm == 0 || loss == 0 || marks == 0 {
		t.Errorf("scenario must exercise every attribution class: adm=%d loss=%d marks=%d", adm, loss, marks)
	}
	if res.FabricTimeline.Len() == 0 {
		t.Error("empty fabric timeline")
	}
	if len(res.BurstEvents) < 2 {
		t.Errorf("scenario must detect several microbursts, got %d", len(res.BurstEvents))
	}

	for _, f := range []struct {
		name  string
		write func(io.Writer) error
		parse func(*testing.T, []byte) ([]hostsim.PortReport, []hostsim.BurstEvent)
	}{
		{"WriteFabricReport", res.WriteFabricReport, parseReportCSV},
		{"WriteFabricReportJSONL", res.WriteFabricReportJSONL, parseReportJSONL},
	} {
		ports, bursts := f.parse(t, exportBytes(t, f.write))
		if !reflect.DeepEqual(ports, res.PortReports) || !reflect.DeepEqual(bursts, res.BurstEvents) {
			t.Errorf("%s does not parse back to Result.PortReports and Result.BurstEvents", f.name)
		}
		checkLedger(t, f.name, ports, bursts)
	}
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
		parse func(*testing.T, []byte) *hostsim.Timeline
	}{
		{"FabricTimeline.WriteCSV", res.FabricTimeline.WriteCSV, parseTimelineCSV},
		{"FabricTimeline.WriteJSONL", res.FabricTimeline.WriteJSONL, parseTimelineJSONL},
	} {
		tl := f.parse(t, exportBytes(t, f.write))
		if !reflect.DeepEqual(tl, res.FabricTimeline) {
			t.Errorf("%s does not parse back to Result.FabricTimeline", f.name)
		}
		checkFabricTimeline(t, f.name, tl, res.PortReports)
	}
}

// exportBytes returns what write emits.
func exportBytes(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// portColumns and burstColumns map each column of the ledger exports (the
// CSV headers and the JSONL object keys) to the field it carries.
var (
	portColumns = map[string]func(*hostsim.PortReport) any{
		"port":                 func(p *hostsim.PortReport) any { return &p.Port },
		"host":                 func(p *hostsim.PortReport) any { return &p.Host },
		"in_frames":            func(p *hostsim.PortReport) any { return &p.InFrames },
		"forwarded":            func(p *hostsim.PortReport) any { return &p.Forwarded },
		"admission_drops":      func(p *hostsim.PortReport) any { return &p.AdmissionDrops },
		"admission_drop_bytes": func(p *hostsim.PortReport) any { return &p.AdmissionDropBytes },
		"enqueued":             func(p *hostsim.PortReport) any { return &p.Enqueued },
		"delivered":            func(p *hostsim.PortReport) any { return &p.Delivered },
		"wire_loss_drops":      func(p *hostsim.PortReport) any { return &p.WireLossDrops },
		"in_flight":            func(p *hostsim.PortReport) any { return &p.InFlight },
		"ecn_marks":            func(p *hostsim.PortReport) any { return &p.ECNMarks },
		"tx_bytes":             func(p *hostsim.PortReport) any { return &p.TxBytes },
		"utilization":          func(p *hostsim.PortReport) any { return &p.Utilization },
		"peak_backlog_bytes":   func(p *hostsim.PortReport) any { return &p.PeakBacklog },
		"peak_occupancy_bytes": func(p *hostsim.PortReport) any { return &p.PeakOccupancy },
		"hop_mean_ns":          func(p *hostsim.PortReport) any { return &p.HopLatencyMean },
		"hop_p50_ns":           func(p *hostsim.PortReport) any { return &p.HopLatencyP50 },
		"hop_p99_ns":           func(p *hostsim.PortReport) any { return &p.HopLatencyP99 },
		"hop_max_ns":           func(p *hostsim.PortReport) any { return &p.HopLatencyMax },
		"bursts":               func(p *hostsim.PortReport) any { return &p.Bursts },
	}
	burstColumns = map[string]func(*hostsim.BurstEvent) any{
		"port":                 func(b *hostsim.BurstEvent) any { return &b.Port },
		"host":                 func(b *hostsim.BurstEvent) any { return &b.Host },
		"start_ns":             func(b *hostsim.BurstEvent) any { return &b.Start },
		"duration_ns":          func(b *hostsim.BurstEvent) any { return &b.Duration },
		"peak_backlog_bytes":   func(b *hostsim.BurstEvent) any { return &b.PeakBacklog },
		"peak_occupancy_bytes": func(b *hostsim.BurstEvent) any { return &b.PeakOccupancy },
		"frames":               func(b *hostsim.BurstEvent) any { return &b.Frames },
		"admission_drops":      func(b *hostsim.BurstEvent) any { return &b.AdmissionDrops },
		"truncated":            func(b *hostsim.BurstEvent) any { return &b.Truncated },
		"flows":                func(b *hostsim.BurstEvent) any { return &b.Flows },
	}
)

// setColumn parses one exported cell into the field dst points at.
// Durations are integer nanoseconds; flows are "flow:frames" pairs
// joined by ';'.
func setColumn(dst any, cell string) error {
	var err error
	switch d := dst.(type) {
	case *string:
		*d = cell
	case *int:
		*d, err = strconv.Atoi(cell)
	case *int64:
		*d, err = strconv.ParseInt(cell, 10, 64)
	case *time.Duration:
		var ns int64
		ns, err = strconv.ParseInt(cell, 10, 64)
		*d = time.Duration(ns)
	case *float64:
		*d, err = strconv.ParseFloat(cell, 64)
	case *bool:
		*d, err = strconv.ParseBool(cell)
	case *[]fabricobs.FlowFrames:
		*d = []fabricobs.FlowFrames{}
		if cell == "" {
			break
		}
		for _, pair := range strings.Split(cell, ";") {
			var ff fabricobs.FlowFrames
			if _, err := fmt.Sscanf(pair, "%d:%d", &ff.Flow, &ff.Frames); err != nil {
				return fmt.Errorf("flow pair %q: %v", pair, err)
			}
			*d = append(*d, ff)
		}
	default:
		return fmt.Errorf("no parser for %T", dst)
	}
	return err
}

// parseRow fills a fresh row from (column, cell) pairs, failing on an
// unknown, repeated or missing column.
func parseRow[R any](t *testing.T, where string, cols map[string]func(*R) any, names, cells []string) R {
	t.Helper()
	var row R
	if len(names) != len(cells) {
		t.Fatalf("%s: %d cells for %d columns", where, len(cells), len(names))
	}
	seen := map[string]bool{}
	for i, name := range names {
		field, ok := cols[name]
		if !ok || seen[name] {
			t.Fatalf("%s: unknown or repeated column %q", where, name)
		}
		seen[name] = true
		if err := setColumn(field(&row), cells[i]); err != nil {
			t.Fatalf("%s: column %s: %v", where, name, err)
		}
	}
	if len(seen) != len(cols) {
		t.Fatalf("%s: %d of %d columns present", where, len(seen), len(cols))
	}
	return row
}

// parseReportCSV reads WriteFabricReport's two headed sections, ports
// then bursts, split by one blank line.
func parseReportCSV(t *testing.T, data []byte) (ports []hostsim.PortReport, bursts []hostsim.BurstEvent) {
	t.Helper()
	sections := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n\n")
	if len(sections) != 2 {
		t.Fatalf("fabric report CSV: %d sections, want ports and bursts", len(sections))
	}
	lines := strings.Split(sections[0], "\n")
	header := strings.Split(lines[0], ",")
	for i, line := range lines[1:] {
		where := fmt.Sprintf("fabric report CSV port row %d", i+1)
		ports = append(ports, parseRow(t, where, portColumns, header, strings.Split(line, ",")))
	}
	lines = strings.Split(sections[1], "\n")
	header = strings.Split(lines[0], ",")
	for i, line := range lines[1:] {
		where := fmt.Sprintf("fabric report CSV burst row %d", i+1)
		bursts = append(bursts, parseRow(t, where, burstColumns, header, strings.Split(line, ",")))
	}
	return ports, bursts
}

// parseReportJSONL reads WriteFabricReportJSONL's objects, each tagged
// "port" or "burst" in its type key.
func parseReportJSONL(t *testing.T, data []byte) (ports []hostsim.PortReport, bursts []hostsim.BurstEvent) {
	t.Helper()
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		where := fmt.Sprintf("fabric report JSONL line %d", i+1)
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		var typ string
		if err := json.Unmarshal(obj["type"], &typ); err != nil {
			t.Fatalf("%s: type: %v", where, err)
		}
		delete(obj, "type")
		var names, cells []string
		for name, raw := range obj {
			cell := string(raw)
			if raw[0] == '"' {
				if err := json.Unmarshal(raw, &cell); err != nil {
					t.Fatalf("%s: %s: %v", where, name, err)
				}
			}
			names, cells = append(names, name), append(cells, cell)
		}
		switch typ {
		case "port":
			ports = append(ports, parseRow(t, where, portColumns, names, cells))
		case "burst":
			bursts = append(bursts, parseRow(t, where, burstColumns, names, cells))
		default:
			t.Fatalf("%s: unknown type %q", where, typ)
		}
	}
	return ports, bursts
}

// checkLedger asserts what the ledger guarantees: non-negative counters,
// both per-port identities, ordered hop-latency quantiles, utilization in
// [0, 1] give or take 0.1%, and bursts on a known port with that port's host, sorted by
// start, with contributing-flow frames within the burst's own and no more
// retained per port than the ledger counts.
func checkLedger(t *testing.T, name string, ports []hostsim.PortReport, bursts []hostsim.BurstEvent) {
	t.Helper()
	if len(ports) == 0 {
		t.Errorf("%s: no port rows", name)
	}
	byPort := map[int]hostsim.PortReport{}
	for _, p := range ports {
		byPort[p.Port] = p
		for _, v := range []int64{p.InFrames, p.Forwarded, p.AdmissionDrops, p.AdmissionDropBytes,
			p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight, p.ECNMarks, p.TxBytes, p.Bursts} {
			if v < 0 {
				t.Errorf("%s: port %d has a negative counter: %+v", name, p.Port, p)
				break
			}
		}
		if p.InFrames != p.Forwarded+p.AdmissionDrops {
			t.Errorf("%s: port %d: in %d != forwarded %d + admission drops %d",
				name, p.Port, p.InFrames, p.Forwarded, p.AdmissionDrops)
		}
		if p.Enqueued != p.Delivered+p.WireLossDrops+p.InFlight {
			t.Errorf("%s: port %d: enqueued %d != delivered %d + wire loss %d + in flight %d",
				name, p.Port, p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight)
		}
		// Quantiles come from a log-bucketed histogram (bucket growth
		// 1.165x) while mean and max are exact, so p99 may land up to one
		// bucket above the true max.
		if p.HopLatencyP50 > p.HopLatencyP99 || p.HopLatencyMean > p.HopLatencyMax ||
			float64(p.HopLatencyP99) > float64(p.HopLatencyMax)*1.166+1 {
			t.Errorf("%s: port %d: hop latency out of order: p50 %v p99 %v mean %v max %v",
				name, p.Port, p.HopLatencyP50, p.HopLatencyP99, p.HopLatencyMean, p.HopLatencyMax)
		}
		if p.Utilization < 0 || p.Utilization > 1.001 {
			t.Errorf("%s: port %d: utilization %g outside [0,1]", name, p.Port, p.Utilization)
		}
	}
	retained := map[int]int64{}
	for i, b := range bursts {
		p, ok := byPort[b.Port]
		if !ok || b.Host != p.Host {
			t.Errorf("%s: burst %d on port %d host %q matches no ledger port", name, i, b.Port, b.Host)
		}
		if i > 0 && b.Start < bursts[i-1].Start {
			t.Errorf("%s: burst %d starts at %v, before burst %d at %v", name, i, b.Start, i-1, bursts[i-1].Start)
		}
		if b.Duration < 0 || b.Frames < 0 || b.AdmissionDrops < 0 {
			t.Errorf("%s: burst %d has a negative duration, frame or drop count: %+v", name, i, b)
		}
		var flowFrames int64
		for _, ff := range b.Flows {
			flowFrames += ff.Frames
		}
		if flowFrames > b.Frames {
			t.Errorf("%s: burst %d: contributing flows carry %d frames, the burst %d", name, i, flowFrames, b.Frames)
		}
		retained[b.Port]++
	}
	for port, n := range retained {
		if n > byPort[port].Bursts {
			t.Errorf("%s: port %d: %d bursts retained, ledger counts %d", name, port, n, byPort[port].Bursts)
		}
	}
}

// parseTimelineCSV reads Timeline.WriteCSV: a time_ns,<names> header and
// one row of the same width per sample.
func parseTimelineCSV(t *testing.T, data []byte) *hostsim.Timeline {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	header := strings.Split(lines[0], ",")
	if header[0] != "time_ns" {
		t.Fatalf("timeline CSV header starts with %q, want time_ns", header[0])
	}
	tl := &hostsim.Timeline{Names: header[1:]}
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("timeline CSV row %d: %d fields, header has %d", i+1, len(cells), len(header))
		}
		var at time.Duration
		row := make([]float64, len(tl.Names))
		err := setColumn(&at, cells[0])
		for j := range row {
			if err == nil {
				err = setColumn(&row[j], cells[j+1])
			}
		}
		if err != nil {
			t.Fatalf("timeline CSV row %d: %v", i+1, err)
		}
		tl.Times, tl.Rows = append(tl.Times, at), append(tl.Rows, row)
	}
	return tl
}

// parseTimelineJSONL reads Timeline.WriteJSONL: a {"names":[...]} header
// and one {"t_ns":...,"v":[...]} object per sample.
func parseTimelineJSONL(t *testing.T, data []byte) *hostsim.Timeline {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	tl := &hostsim.Timeline{}
	var header struct{ Names []string }
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("timeline JSONL header: %v", err)
	}
	tl.Names = header.Names
	for i, line := range lines[1:] {
		var row struct {
			TNs int64 `json:"t_ns"`
			V   []float64
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("timeline JSONL line %d: %v", i+2, err)
		}
		if len(row.V) != len(tl.Names) {
			t.Fatalf("timeline JSONL line %d: %d values for %d names", i+2, len(row.V), len(tl.Names))
		}
		tl.Times, tl.Rows = append(tl.Times, time.Duration(row.TNs)), append(tl.Rows, row.V)
	}
	return tl
}

// checkFabricTimeline asserts the observatory time-series has the
// occupancy column, one backlog column per ledger port, and strictly
// increasing sample times.
func checkFabricTimeline(t *testing.T, name string, tl *hostsim.Timeline, ports []hostsim.PortReport) {
	t.Helper()
	want := []string{"occupancy_bytes"}
	for _, p := range ports {
		want = append(want, fmt.Sprintf("port%03d/backlog_bytes", p.Port))
	}
	for _, col := range want {
		if !slices.Contains(tl.Names, col) {
			t.Errorf("%s: no %s column", name, col)
		}
	}
	for i := 1; i < len(tl.Times); i++ {
		if tl.Times[i] <= tl.Times[i-1] {
			t.Errorf("%s: sample %d at %v is not after sample %d at %v", name, i, tl.Times[i], i-1, tl.Times[i-1])
		}
	}
}

// fabObsArtifacts renders every observatory export of one result as a
// single byte string.
func fabObsArtifacts(t *testing.T, r *hostsim.Result) string {
	t.Helper()
	var sb strings.Builder
	for _, step := range []struct {
		name  string
		write func() error
	}{
		{"report", func() error { return r.WriteFabricReport(&sb) }},
		{"jsonl", func() error { return r.WriteFabricReportJSONL(&sb) }},
		{"trace", func() error { return r.WriteFabricTrace(&sb) }},
		{"ts", func() error { return r.FabricTimeline.WriteCSV(&sb) }},
	} {
		if err := step.write(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	sb.WriteString(r.FormatFabricReport())
	return sb.String()
}

// TestFabricObsArtifactDeterminism extends the batch-determinism property
// to the observatory's exports: every artifact — ledger CSV and JSONL,
// Perfetto trace, time-series, text report — must be byte-identical
// between -jobs 1 and -jobs 8, and across repeated rendering.
func TestFabricObsArtifactDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run property")
	}
	mk := func(hosts, bufKB int) hostsim.Job {
		cfg := fabCfg(hosts)
		cfg.Check = nil // determinism property, not a conservation one
		cfg.Fabric.SharedBufferKB = bufKB
		cfg.FabricObs = &hostsim.FabricObsOptions{BurstThresholdKB: 64}
		return hostsim.Job{Config: cfg, Workload: hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)}
	}
	jobs := []hostsim.Job{mk(8, 256), mk(16, 0), mk(4, 64)}
	serial, err := hostsim.RunMany(jobs, hostsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := hostsim.RunMany(jobs, hostsim.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a := fabObsArtifacts(t, serial[i])
		if b := fabObsArtifacts(t, par[i]); a != b {
			t.Errorf("job %d: observatory artifacts diverged between -jobs 1 and -jobs 8", i)
		}
		if b := fabObsArtifacts(t, serial[i]); a != b {
			t.Errorf("job %d: repeated rendering of the same result diverged", i)
		}
	}
}

// TestFabricObsRejects pins the configuration errors.
func TestFabricObsRejects(t *testing.T) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	noFab := hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 1,
		Warmup: time.Millisecond, Duration: time.Millisecond,
		FabricObs: &hostsim.FabricObsOptions{},
	}
	if _, err := hostsim.Run(noFab, wl); err == nil {
		t.Error("FabricObs without Fabric: expected an error")
	}
	neg := fabCfg(4)
	neg.FabricObs = &hostsim.FabricObsOptions{BurstThresholdKB: -1}
	if _, err := hostsim.Run(neg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err == nil {
		t.Error("negative FabricObs option: expected an error")
	}
	// Writers on a run without the observatory must error, not panic.
	plain, err := hostsim.Run(fabCfg(4), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := plain.WriteFabricReport(&sb); err == nil {
		t.Error("WriteFabricReport without FabricObs: expected an error")
	}
}
