// Package telemetry provides the simulator's time-resolved observability
// layer: a registry of named column groups (counters and gauges are
// one-column groups) that every subsystem registers into, an interval
// sampler that snapshots the registry into a ring-buffered timeseries
// (dumpable as CSV or JSONL), and a Chrome trace-event exporter that
// renders per-core execution spans and flow lifecycle events for
// Perfetto / chrome://tracing.
//
// The whole layer follows the nil-is-free convention of internal/trace: a
// nil *Registry hands out nil *Counters, and every method of a nil
// Counter or Registry is a no-op, so the data path carries no telemetry
// cost unless a registry is installed.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Counter is a monotonically increasing event count. Subsystems hold a
// *Counter (from Registry.Counter, or one of their own that a group's
// probe reads) and bump it on their hot paths; a nil Counter (handed out
// by a nil Registry) makes every bump a no-op.
type Counter struct {
	v int64
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (which may be any sign; counters in this simulator only ever
// grow, but the registry does not enforce it). Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// group is one registered block of timeseries columns: column i is named
// prefix+cols[i], and read fills all of them at once. Blocks of the same
// shape (every host's NIC, every core of every host) share one static
// cols slice, so a column costs no allocation of its own.
type group struct {
	prefix string
	cols   []string
	read   func(dst []float64)
	prev   int // earlier group under the same prefix, or -1
}

// Registry holds the named metrics of one simulation run as an ordered
// list of column groups. Metrics are sampled in registration order, which
// is deterministic because all registration happens during
// single-threaded simulation setup.
//
// A nil *Registry is valid: Counter returns nil (a no-op counter) and
// Gauge and Group do nothing, so subsystems can register unconditionally.
type Registry struct {
	groups []group
	width  int // total columns
	// byPrefix maps each prefix to its latest group; with '/' banned from
	// column names, two full names can only collide under one prefix.
	byPrefix map[string]int
	names    []string // full column names, built on demand by Names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPrefix: make(map[string]int)}
}

// Counter registers a new counter under name and returns it. On a nil
// registry it returns nil, which is a valid no-op counter. Registering a
// duplicate name panics: metric names identify timeline columns.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.Gauge(name, func() float64 { return float64(c.v) })
	return c
}

// Gauge registers a probe that is evaluated at each sample, as a
// one-column group: name up to its last '/' is the group prefix, the
// rest the column name. Probes must be
// pure reads of simulation state: they run interleaved with the
// simulation and must not perturb it. No-op on a nil registry.
func (r *Registry) Gauge(name string, probe func() float64) {
	if r == nil {
		return
	}
	if probe == nil {
		panic("telemetry: nil gauge probe")
	}
	i := strings.LastIndexByte(name, '/') + 1
	r.Group(name[:i], []string{name[i:]}, func(dst []float64) { dst[0] = probe() })
}

// Group registers a block of len(cols) columns named prefix+cols[i] and
// one probe that fills them: read receives a dst of len(cols) and writes
// column i to dst[i]. prefix is empty or ends in '/', and column names
// are non-empty and contain no '/'; cols is kept, not copied, so callers
// share one package-level slice across every block of the same shape.
// Like a gauge probe, read must not perturb the simulation; it may keep
// private state across samples (an interval rate), since each Read calls
// it exactly once. Registering a duplicate full name panics. No-op on a
// nil registry.
func (r *Registry) Group(prefix string, cols []string, read func(dst []float64)) {
	if r == nil {
		return
	}
	if read == nil {
		panic("telemetry: nil group probe")
	}
	if prefix != "" && prefix[len(prefix)-1] != '/' {
		panic(fmt.Sprintf("telemetry: group prefix %q does not end in '/'", prefix))
	}
	prev, ok := r.byPrefix[prefix]
	if !ok {
		prev = -1
	}
	for i, c := range cols {
		if c == "" {
			panic("telemetry: empty metric name")
		}
		if strings.IndexByte(c, '/') >= 0 {
			panic(fmt.Sprintf("telemetry: column name %q contains '/'", c))
		}
		if slices.Contains(cols[:i], c) || r.taken(prev, c) {
			panic(fmt.Sprintf("telemetry: duplicate metric %q", prefix+c))
		}
	}
	r.byPrefix[prefix] = len(r.groups)
	r.groups = append(r.groups, group{prefix: prefix, cols: cols, read: read, prev: prev})
	r.width += len(cols)
}

// taken reports whether col is a column of group g or of an earlier group
// under the same prefix.
func (r *Registry) taken(g int, col string) bool {
	for ; g >= 0; g = r.groups[g].prev {
		if slices.Contains(r.groups[g].cols, col) {
			return true
		}
	}
	return false
}

// Len returns the number of registered metrics (0 on nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return r.width
}

// Names returns the metric names in registration order. The full names
// are built into one backing string on the first call after a
// registration, and the returned slice is shared with the registry and
// every Timeline taken from it: callers must not modify it.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	if len(r.names) < r.width {
		n := 0
		for _, g := range r.groups {
			for _, c := range g.cols {
				n += len(g.prefix) + len(c)
			}
		}
		var b strings.Builder
		b.Grow(n)
		for _, g := range r.groups {
			for _, c := range g.cols {
				b.WriteString(g.prefix)
				b.WriteString(c)
			}
		}
		all, off := b.String(), 0
		r.names = make([]string, 0, r.width)
		for _, g := range r.groups {
			for _, c := range g.cols {
				end := off + len(g.prefix) + len(c)
				r.names = append(r.names, all[off:end])
				off = end
			}
		}
	}
	return r.names
}

// Read evaluates every group in registration order into a fresh slice.
func (r *Registry) Read() []float64 {
	if r == nil {
		return nil
	}
	out := make([]float64, r.width)
	off := 0
	for _, g := range r.groups {
		end := off + len(g.cols)
		g.read(out[off:end:end])
		off = end
	}
	return out
}

// Value evaluates one metric by name; ok is false if it is not
// registered. It scans the groups and evaluates the whole group holding
// name, so it is meant for tests, not for sampling.
func (r *Registry) Value(name string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	for _, g := range r.groups {
		if !strings.HasPrefix(name, g.prefix) {
			continue
		}
		if i := slices.Index(g.cols, name[len(g.prefix):]); i >= 0 {
			dst := make([]float64, len(g.cols))
			g.read(dst)
			return dst[i], true
		}
	}
	return 0, false
}

// SortedNames returns the metric names sorted lexically (for display; the
// timeline itself keeps registration order).
func (r *Registry) SortedNames() []string {
	out := append([]string(nil), r.Names()...)
	sort.Strings(out)
	return out
}

// Prefix returns the group prefix of the i-th block of one kind under
// parent: parent + kind + i zero-padded to width digits + "/", e.g.
// Prefix("host003/", "core", 7, 2) is "host003/core07/". It spells
// fmt.Sprintf("%s%s%0*d/", parent, kind, width, i) for i >= 0 with a
// single allocation.
func Prefix(parent, kind string, i, width int) string {
	var num [20]byte
	d := strconv.AppendInt(num[:0], int64(i), 10)
	pad := max(width-len(d), 0)
	var b strings.Builder
	b.Grow(len(parent) + len(kind) + pad + len(d) + 1)
	b.WriteString(parent)
	b.WriteString(kind)
	for ; pad > 0; pad-- {
		b.WriteByte('0')
	}
	b.Write(d)
	b.WriteByte('/')
	return b.String()
}
