package core

import "hostsim/internal/telemetry"

// ForEachEndpoint visits the host's local sender endpoints in tx-flow
// order — the same deterministic iteration the invariant checker uses —
// so callers can attach observers or collect terminal per-flow stats
// without reaching into the endpoint maps.
func (h *Host) ForEachEndpoint(fn func(*Endpoint)) {
	for _, ep := range sortedEndpoints(h) {
		fn(ep)
	}
}

// Column blocks of the socket-snapshot timeline, shared by every host.
// RTT-class columns report nanoseconds, the repo-wide latency unit (see
// package stage) shared with the passive RTT monitor's rtt_*_ns columns
// and the tail report.
var (
	backlogCols = []string{"softirq_backlog"}
	socketCols  = []string{"cwnd_bytes", "ssthresh_bytes", "srtt_ns", "rto_ns", "inflight_bytes",
		"qdisc_bytes", "sndbuf_free_bytes", "rcvbuf_bytes", "recvq_bytes", "ooo_segments", "retransmits"}
)

// RegisterInspect registers the host's `ss -i`-style socket and queue
// gauges into reg, prefixed with the host name: per-flow TCP state (cwnd,
// ssthresh, srtt, rto, bytes in flight, qdisc and receive-queue depths,
// retransmits) plus NIC ring/backlog/GRO occupancy and softirq backlog.
// Every probe is a pure read, so sampling never perturbs the run. Call
// after the workload's connections are open (flows register here, not
// lazily); no-op on a nil registry.
func (h *Host) RegisterInspect(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p := h.name + "/"
	if h.NIC != nil {
		h.NIC.RegisterQueueTelemetry(reg, p+"nic/")
	}
	sys := h.Sys
	reg.Group(p, backlogCols, func(dst []float64) { dst[0] = float64(sys.SoftirqBacklogTotal()) })
	for i := 0; i < h.spec.NumCores(); i++ {
		c := sys.Core(i)
		reg.Group(telemetry.Prefix(p, "core", i, 2), backlogCols,
			func(dst []float64) { dst[0] = float64(c.SoftirqBacklog()) })
	}
	for _, ep := range sortedEndpoints(h) {
		conn := ep.conn
		reg.Group(telemetry.Prefix(p, "flow", int(ep.txFlow), 3), socketCols, func(dst []float64) {
			dst[0] = float64(conn.CC().Cwnd())
			dst[1] = float64(conn.CC().Ssthresh())
			dst[2] = float64(conn.SRTT().Nanoseconds())
			dst[3] = float64(conn.RTO().Nanoseconds())
			dst[4] = float64(conn.InFlight())
			dst[5] = float64(conn.InQdisc())
			dst[6] = float64(conn.SndBufFree())
			dst[7] = float64(conn.RcvBuf())
			dst[8] = float64(conn.Readable())
			dst[9] = float64(conn.OOOLen())
			dst[10] = float64(conn.Stats().Retransmits)
		})
	}
}
