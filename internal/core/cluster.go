package core

import (
	"time"

	"hostsim/internal/fabric"
	"hostsim/internal/nic"
	"hostsim/internal/skb"
)

// Cluster is N hosts attached to a single-stage switch fabric — the only
// topology: the paper's two-server testbed is a 2-host cluster.
// Construction wires every host's NIC to its fabric ingress port and
// shares the fast-path pools and the flow-ID counter cluster-wide.
//
// The pools are cluster-wide (not per-host) because a frame is born on
// one host and dies on another, so only a pool spanning every producer
// and consumer stays balanced. The pool is a plain free list — its scope
// changes no allocation behavior, only where recycled buffers may
// resurface, which the conservation checker audits cluster-wide.
type Cluster struct {
	hosts []*Host
	fab   *fabric.Fabric
}

// ConnectFabric attaches hosts to a new switch fabric and instantiates
// their NICs. Call exactly once per host set, before opening connections.
// Zero-valued fcfg.Ports/LinkRate/Delay default to the host count and the
// machine spec's link rate and one-way delay, so a default port behaves
// exactly like a dedicated link between two hosts.
func ConnectFabric(hosts []*Host, fcfg fabric.Config) *Cluster {
	if len(hosts) < 2 {
		panic("core: a fabric needs at least 2 hosts")
	}
	for _, h := range hosts {
		if h.NIC != nil {
			panic("core: host already connected")
		}
	}
	spec := hosts[0].spec
	fcfg.Ports = len(hosts)
	if fcfg.LinkRate == 0 {
		fcfg.LinkRate = spec.LinkRate
	}
	if fcfg.Delay == 0 {
		fcfg.Delay = time.Duration(spec.OneWayDelay) * time.Nanosecond
	}
	c := &Cluster{hosts: hosts}
	c.fab = fabric.New(hosts[0].eng, fcfg, func(port int, f *skb.Frame) {
		c.hosts[port].NIC.ReceiveFromWire(f)
	})
	// Cluster-wide pools and flow numbering: per-cluster (not global)
	// counters keep concurrent simulations independent.
	skbs, frames := &skb.Pool{}, &skb.FramePool{}
	flows := hosts[0].flows
	for i, h := range hosts {
		h.NIC = nic.New(h.eng, h.Sys, h.Alloc, h.DCA, h.opts.nicConfig(), c.fab.Port(i), h.deliver)
		h.NIC.SetTxComplete(h.txComplete)
		h.NIC.SetPools(skbs, frames)
		h.flows = flows
		h.cluster, h.port = c, i
		h.installSteering()
	}
	return c
}

// Fabric returns the switch.
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }
