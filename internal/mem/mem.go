// Package mem models the kernel memory-management machinery the network
// stack leans on: the page allocator with its per-core pagesets (pcp
// lists) backed by a global buddy allocator, NUMA-aware page placement and
// free costs, and the IOMMU's per-page map/unmap work.
//
// The paper's §3.2 observation — memory alloc/dealloc overhead *drops*
// when the network saturates, because pages recycle through the per-core
// pageset before it empties — emerges from this model: a core whose
// in-flight page population stays under the pageset capacity serves
// allocations at pcp cost; once in-flight pages exceed it, traffic spills
// to the global allocator at several times the cost.
package mem

import (
	"fmt"
	"slices"

	"hostsim/internal/cache"
	"hostsim/internal/cpumodel"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// Page is one kernel page handed to the NIC or the stack.
type Page struct {
	ID   cache.PageID // globally unique, stable for cache placement
	Node int          // NUMA node the page's memory lives on
}

// DefaultPagesetCap is the per-core pageset capacity in pages. Linux pcp
// lists hold a few hundred pages per order-0 zone list.
const DefaultPagesetCap = 512

// Stats counts allocator activity.
type Stats struct {
	AllocPCP    int64 // pages served from a per-core pageset
	AllocGlobal int64 // pages served from the buddy allocator
	FreePCP     int64 // pages returned to a pageset
	FreeGlobal  int64 // pages returned to buddy
	FreeRemote  int64 // frees of pages on a different node than the core
	IOMMUMaps   int64
	IOMMUUnmaps int64
}

// Allocator is the per-host page allocator. Not safe for concurrent use;
// the simulator is single-threaded.
type Allocator struct {
	spec   topology.MachineSpec
	costs  *cpumodel.Costs
	iommu  bool
	nextID cache.PageID
	// freelists[core] is a LIFO of free pages, all on that core's node:
	// LIFO keeps recently freed (cache-hot, placement-stable) pages
	// recycling first, like the kernel's pcp hot list.
	freelists  [][]Page
	pagesetCap int
	inUse      int64
	stats      Stats
}

// NewAllocator builds an allocator for spec. costs must be non-nil.
func NewAllocator(spec topology.MachineSpec, costs *cpumodel.Costs) *Allocator {
	if costs == nil {
		panic("mem: nil cost table")
	}
	return &Allocator{
		spec:       spec,
		costs:      costs,
		freelists:  make([][]Page, spec.NumCores()),
		pagesetCap: DefaultPagesetCap,
	}
}

// SetIOMMU enables or disables IOMMU accounting (per-page map/unmap costs
// in the DMA path).
func (a *Allocator) SetIOMMU(on bool) { a.iommu = on }

// IOMMU reports whether IOMMU accounting is enabled.
func (a *Allocator) IOMMU() bool { return a.iommu }

// SetPagesetCap overrides the per-core pageset capacity (for tests and
// ablations).
func (a *Allocator) SetPagesetCap(n int) {
	if n < 0 {
		panic("mem: negative pageset capacity")
	}
	a.pagesetCap = n
}

// Alloc returns n pages for code running on core, charging ch. Pages come
// from the core's pageset when available (cheap) and the global allocator
// otherwise (expensive); they are placed on the core's NUMA node.
func (a *Allocator) Alloc(ch cpumodel.Charger, core, n int) []Page {
	return a.AppendAlloc(ch, core, n, nil)
}

// AppendAlloc is Alloc appending into dst, so hot paths can hand in a
// reusable slice and avoid the per-call allocation.
func (a *Allocator) AppendAlloc(ch cpumodel.Charger, core, n int, dst []Page) []Page {
	if n < 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", n))
	}
	node := a.spec.NodeOf(core)
	want := len(dst) + n
	dst = slices.Grow(dst, n)
	fl := a.freelists[core]
	for len(dst) < want && len(fl) > 0 {
		dst = append(dst, fl[len(fl)-1])
		fl = fl[:len(fl)-1]
		a.stats.AllocPCP++
		ch.Charge(cpumodel.Memory, a.costs.PageAllocPCP)
	}
	a.freelists[core] = fl
	for len(dst) < want {
		a.nextID++
		dst = append(dst, Page{ID: a.nextID, Node: node})
		a.stats.AllocGlobal++
		ch.Charge(cpumodel.Memory, a.costs.PageAllocGlobal)
	}
	a.inUse += int64(n)
	return dst
}

// Stash is a LIFO of pages reserved for one consumer, such as an Rx
// queue's posted descriptors. It holds three parts, bottom to top: the
// pageset pages Prefill took, in the order Alloc would have returned them;
// a run of fresh IDs [lo,hi) on one node that Prefill reserved but has not
// materialised; and the pages Restock pushed since. A large, mostly idle
// reservation therefore costs no memory until it is popped.
type Stash struct {
	boot   []Page
	lo, hi cache.PageID
	node   int
	top    []Page
}

// Prefill reserves n pages for code running on core, exactly as
// Alloc(cpumodel.Discard{}, core, n) would: the same pages, IDs and
// counters, with no CPU charged. Only the pageset share is materialised.
func (a *Allocator) Prefill(core, n int) Stash {
	if n < 0 {
		panic(fmt.Sprintf("mem: Prefill(%d)", n))
	}
	fl := a.freelists[core]
	k := min(n, len(fl))
	s := Stash{boot: make([]Page, k), node: a.spec.NodeOf(core)}
	for i := range s.boot {
		s.boot[i] = fl[len(fl)-1-i]
	}
	a.freelists[core] = fl[:len(fl)-k]
	a.stats.AllocPCP += int64(k)
	fresh := n - k
	s.lo = a.nextID + 1
	s.hi = s.lo + cache.PageID(fresh)
	a.nextID += cache.PageID(fresh)
	a.stats.AllocGlobal += int64(fresh)
	a.inUse += int64(n)
	return s
}

// Restock allocates n pages for code running on core, charging ch as
// Alloc does, and pushes them onto s.
func (a *Allocator) Restock(ch cpumodel.Charger, core, n int, s *Stash) {
	s.top = a.AppendAlloc(ch, core, n, s.top)
}

// Len returns the number of pages in the stash.
func (s *Stash) Len() int { return len(s.boot) + int(s.hi-s.lo) + len(s.top) }

// Pop removes the top len(dst) pages and writes them to dst in stash
// order, bottom first, so dst's last page is the stash's former top.
// Panics if the stash holds fewer pages.
func (s *Stash) Pop(dst []Page) {
	k := len(dst)
	if k > s.Len() {
		panic(fmt.Sprintf("mem: Pop(%d) from a stash of %d", k, s.Len()))
	}
	t := min(k, len(s.top))
	copy(dst[k-t:], s.top[len(s.top)-t:])
	s.top = s.top[:len(s.top)-t]
	k -= t
	f := min(k, int(s.hi-s.lo))
	s.hi -= cache.PageID(f)
	for i := 0; i < f; i++ {
		dst[k-f+i] = Page{ID: s.hi + cache.PageID(i), Node: s.node}
	}
	k -= f
	copy(dst[:k], s.boot[len(s.boot)-k:])
	s.boot = s.boot[:len(s.boot)-k]
}

// Free returns pages from code running on core. Local pages go back to the
// core's pageset while it has room, then to the global allocator; pages
// on a remote node always go global and pay the remote-free premium (the
// paper's aRFS locality observation).
func (a *Allocator) Free(ch cpumodel.Charger, core int, pages []Page) {
	node := a.spec.NodeOf(core)
	fl := a.freelists[core]
	for _, p := range pages {
		if p.Node == node {
			if len(fl) < a.pagesetCap {
				fl = append(fl, p)
				a.stats.FreePCP++
				ch.Charge(cpumodel.Memory, a.costs.PageFreePCP)
			} else {
				a.stats.FreeGlobal++
				ch.Charge(cpumodel.Memory, a.costs.PageFreeGlobal)
			}
		} else {
			a.stats.FreeGlobal++
			a.stats.FreeRemote++
			ch.Charge(cpumodel.Memory, a.costs.PageFreeGlobal+a.costs.PageFreeRemote)
		}
	}
	a.freelists[core] = fl
	a.inUse -= int64(len(pages))
	if a.inUse < 0 {
		panic("mem: more pages freed than allocated")
	}
}

// DMAMap charges the IOMMU mapping cost for n pages if the IOMMU is
// enabled (the driver inserts the pages into the device's IOMMU domain).
func (a *Allocator) DMAMap(ch cpumodel.Charger, n int) {
	if !a.iommu || n <= 0 {
		return
	}
	a.stats.IOMMUMaps += int64(n)
	ch.Charge(cpumodel.Memory, a.costs.IOMMUMap*units.Cycles(n))
}

// DMAUnmap charges the IOMMU unmap cost for n pages if enabled.
func (a *Allocator) DMAUnmap(ch cpumodel.Charger, n int) {
	if !a.iommu || n <= 0 {
		return
	}
	a.stats.IOMMUUnmaps += int64(n)
	ch.Charge(cpumodel.Memory, a.costs.IOMMUUnmap*units.Cycles(n))
}

// InUse returns the number of pages currently allocated.
func (a *Allocator) InUse() int64 { return a.inUse }

// PagesetLen returns the number of pages in core's pageset (tests).
func (a *Allocator) PagesetLen(core int) int { return len(a.freelists[core]) }

// Stats returns a copy of the counters.
func (a *Allocator) Stats() Stats { return a.stats }

// PagesFor proxies the spec's page math.
func (a *Allocator) PagesFor(b units.Bytes) int { return a.spec.PagesFor(b) }
