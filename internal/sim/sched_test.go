package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The tests in this file hold the production Engine to a reference
// scheduler through one small driver interface: the same scripts run on
// both, and their dispatch traces must match event for event.

// driver is the scheduler surface the tests exercise.
type driver interface {
	Now() Time
	Run(horizon Time) Time
	Pending() int
	at(t Time, fn func()) handle
	zero() handle // a handle that was never scheduled
}

// handle is a pending event's cancel/reschedule surface.
type handle interface {
	Stop() bool
	Reset(at Time) bool
	Pending() bool
}

// engineDriver adapts the production Engine.
type engineDriver struct{ *Engine }

func (d engineDriver) at(t Time, fn func()) handle { tm := d.At(t, fn); return &tm }
func (engineDriver) zero() handle                  { return &Timer{} }

// oracle is the reference scheduler: a slice kept sorted by (at, seq)
// with linear insertion. Too slow for real runs, simple enough to be
// obviously right.
type oracle struct {
	now     Time
	seq     uint64
	pending []*oracleEvent
}

type oracleEvent struct {
	o   *oracle // nil for the zero handle
	at  Time
	seq uint64
	fn  func()
}

func (o *oracle) Now() Time    { return o.now }
func (o *oracle) Pending() int { return len(o.pending) }
func (o *oracle) zero() handle { return &oracleEvent{} }

func (o *oracle) at(t Time, fn func()) handle {
	ev := &oracleEvent{o: o, at: t, fn: fn}
	o.insert(ev)
	return ev
}

// insert gives ev the next seq, which is larger than every pending one,
// so its (at, seq) slot is just after the last pending event at or
// before ev.at.
func (o *oracle) insert(ev *oracleEvent) {
	if ev.at < o.now {
		panic("oracle: scheduling in the past")
	}
	ev.seq = o.seq
	o.seq++
	i := len(o.pending)
	for i > 0 && o.pending[i-1].at > ev.at {
		i--
	}
	o.pending = slices.Insert(o.pending, i, ev)
}

func (o *oracle) Run(horizon Time) Time {
	for len(o.pending) > 0 && o.pending[0].at < horizon {
		ev := o.pending[0]
		o.pending = o.pending[1:]
		o.now = ev.at
		ev.fn()
	}
	o.now = max(o.now, horizon)
	return o.now
}

func (ev *oracleEvent) index() int {
	if ev.o == nil {
		return -1
	}
	return slices.Index(ev.o.pending, ev)
}

func (ev *oracleEvent) Pending() bool { return ev.index() >= 0 }

func (ev *oracleEvent) Stop() bool {
	i := ev.index()
	if i >= 0 {
		ev.o.pending = slices.Delete(ev.o.pending, i, i+1)
	}
	return i >= 0
}

func (ev *oracleEvent) Reset(at Time) bool {
	if ev.Pending() && at < ev.o.now {
		panic("oracle: resetting into the past")
	}
	if !ev.Stop() {
		return false
	}
	ev.at = at
	ev.o.insert(ev)
	return true
}

// drivers builds one fresh instance of each implementation under test.
var drivers = []struct {
	name string
	new  func() driver
}{
	{"heap", func() driver { return engineDriver{NewEngine(1)} }},
	{"oracle", func() driver { return &oracle{} }},
}

// TestTimerEdgeCases is the shared table of Timer.Stop/Reset corner
// semantics: the engine and the oracle must both pass every row.
func TestTimerEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e driver)
	}{
		{"stop after fire reports false", func(t *testing.T, e driver) {
			tm := e.at(5, func() {})
			e.Run(10)
			if tm.Stop() {
				t.Error("Stop after firing should report false")
			}
			if tm.Pending() {
				t.Error("fired timer should not be pending")
			}
		}},
		{"stop twice reports false second time", func(t *testing.T, e driver) {
			tm := e.at(5, func() {})
			if !tm.Stop() || tm.Stop() {
				t.Error("Stop must report true then false")
			}
		}},
		{"reset to past panics", func(t *testing.T, e driver) {
			tm := e.at(100, func() {})
			e.at(50, func() {
				defer func() {
					if recover() == nil {
						t.Error("Reset before now should panic")
					}
				}()
				tm.Reset(10)
			})
			e.Run(1000)
		}},
		{"reset to same tick moves to back of FIFO", func(t *testing.T, e driver) {
			var order []string
			x := e.at(100, func() { order = append(order, "x") })
			e.at(100, func() { order = append(order, "y") })
			if !x.Reset(100) {
				t.Fatal("Reset to the same time should succeed")
			}
			e.Run(1000)
			if len(order) != 2 || order[0] != "y" || order[1] != "x" {
				t.Errorf("fire order = %v, want [y x]", order)
			}
		}},
		{"reset to current tick from inside a callback", func(t *testing.T, e driver) {
			var order []string
			var tm handle
			e.at(100, func() {
				order = append(order, "a")
				// tm is pending at 200; pull it into the tick being
				// dispatched right now. It must fire after this tick's
				// other pending events.
				tm.Reset(100)
			})
			tm = e.at(200, func() { order = append(order, "b") })
			e.at(100, func() { order = append(order, "c") })
			e.Run(1000)
			if len(order) != 3 || order[0] != "a" || order[1] != "c" || order[2] != "b" {
				t.Errorf("fire order = %v, want [a c b]", order)
			}
		}},
		{"stop same-tick sibling from inside a callback", func(t *testing.T, e driver) {
			var order []string
			var victim handle
			e.at(100, func() {
				order = append(order, "a")
				if !victim.Stop() {
					t.Error("stopping a pending same-tick sibling should succeed")
				}
			})
			victim = e.at(100, func() { order = append(order, "victim") })
			e.at(100, func() { order = append(order, "b") })
			e.Run(1000)
			if len(order) != 2 || order[0] != "a" || order[1] != "b" {
				t.Errorf("fire order = %v, want [a b]", order)
			}
		}},
		{"reset far future then near", func(t *testing.T, e driver) {
			fired := Time(-1)
			tm := e.at(10, func() { fired = e.Now() })
			// Far future, then back near.
			if !tm.Reset(Time(1) << 50) {
				t.Fatal("Reset to far future should succeed")
			}
			if !tm.Reset(77) {
				t.Fatal("Reset back near should succeed")
			}
			e.Run(1000)
			if fired != 77 {
				t.Errorf("timer fired at %v, want 77", fired)
			}
		}},
		{"stale handle after recycle", func(t *testing.T, e driver) {
			stale := e.at(10, func() {})
			e.Run(20)
			fresh := e.at(30, func() {})
			if stale.Pending() || stale.Stop() || stale.Reset(40) {
				t.Error("stale handle must not touch the recycled event")
			}
			if !fresh.Pending() {
				t.Error("fresh timer lost its schedule to a stale handle")
			}
		}},
		{"zero timer is inert", func(t *testing.T, e driver) {
			tm := e.zero()
			if tm.Pending() || tm.Stop() || tm.Reset(10) {
				t.Error("zero Timer must be permanently inert")
			}
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) { tc.run(t, d.new()) })
			}
		})
	}
}

// traceRec is one dispatched event: when it fired and which logical event
// it was. Equal traces mean equal dispatch order.
type traceRec struct {
	at Time
	id int
}

// farFuture is about 73 simulated minutes: far beyond any run, like an
// idle connection's keepalive.
const farFuture = Time(1) << 42

// sameTraces runs script once per driver and requires every driver's
// dispatch trace and leftover pending count to match the first's.
func sameTraces(t *testing.T, label string, script func(d driver) []traceRec) {
	t.Helper()
	var want []traceRec
	var wantPending int
	for i, dr := range drivers {
		d := dr.new()
		got := script(d)
		if i == 0 {
			want, wantPending = got, d.Pending()
			continue
		}
		if len(got) != len(want) || d.Pending() != wantPending {
			t.Fatalf("%s: %s fired %d (pending %d), %s fired %d (pending %d)", label,
				drivers[0].name, len(want), wantPending, dr.name, len(got), d.Pending())
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: dispatch %d diverged: %s %+v, %s %+v",
					label, j, drivers[0].name, want[j], dr.name, got[j])
			}
		}
	}
}

// dispatchTrace drives d through a randomized workload derived
// deterministically from seed — mixed timescales (same-tick collisions
// through far futures), Stop/Reset churn from inside callbacks, and
// multiple Run segments with non-decreasing horizons — and records the
// (time, id) dispatch sequence. The RNG is consumed inside callbacks too,
// so the streams only stay aligned between two drivers if their dispatch
// orders are identical; any divergence cascades into an obvious trace
// mismatch.
func dispatchTrace(e driver, seed int64) []traceRec {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceRec
	var timers []handle
	nextID := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		var d Time
		switch rng.Intn(8) {
		case 0:
			d = 0 // same tick
		case 1:
			d = Time(rng.Intn(64))
		case 2:
			d = Time(rng.Intn(10_000))
		case 3:
			d = Time(rng.Intn(1_000_000))
		case 4:
			d = Time(rng.Intn(1_000_000_000)) // RTO-ish
		case 5:
			d = farFuture + Time(rng.Intn(1_000_000))
		default:
			d = Time(rng.Intn(4096))
		}
		tm := e.at(e.Now()+d, func() {
			trace = append(trace, traceRec{e.Now(), id})
			if depth >= 3 {
				return
			}
			switch rng.Intn(5) {
			case 0, 1: // schedule more from inside the dispatch
				schedule(depth + 1)
			case 2: // stop a random timer (possibly a same-tick sibling)
				timers[rng.Intn(len(timers))].Stop()
			case 3: // reset a random timer (possibly to this very tick)
				timers[rng.Intn(len(timers))].Reset(e.Now() + Time(rng.Intn(1000)))
			case 4: // no churn
			}
		})
		timers = append(timers, tm)
	}
	horizon := Time(0)
	for seg := 0; seg < 6; seg++ {
		for i := 0; i < 50; i++ {
			schedule(0)
		}
		horizon += Time(rng.Intn(2_000_000) + 1)
		e.Run(horizon)
	}
	// Final drain far enough to pull the far-future events in.
	e.Run(horizon + 2*farFuture)
	return trace
}

// TestSchedulerEquivalence cross-checks the engine against the oracle on
// randomized workloads: identical dispatch sequences (times, identities,
// same-tick FIFO order) and identical leftover counts.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		sameTraces(t, fmt.Sprintf("seed %d", seed), func(d driver) []traceRec {
			return dispatchTrace(d, seed)
		})
	}
}

// runScript interprets data as a deterministic op stream against d:
// schedule (with a delta whose shift reaches far futures), stop, reset,
// and run-to-horizon. Returns the dispatch trace.
func runScript(e driver, data []byte) []traceRec {
	var trace []traceRec
	var timers []handle
	id := 0
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	for pos < len(data) {
		switch next() % 4 {
		case 0: // schedule at now + (b << s), s up to 44
			b, s := Time(next()), uint(next())%45
			myID := id
			id++
			timers = append(timers, e.at(e.Now()+(b<<s), func() {
				trace = append(trace, traceRec{e.Now(), myID})
			}))
		case 1: // stop
			if len(timers) > 0 {
				timers[int(next())%len(timers)].Stop()
			}
		case 2: // reset to now + delta (never the past)
			if len(timers) > 0 {
				i := int(next()) % len(timers)
				timers[i].Reset(e.Now() + Time(next()))
			}
		case 3: // run forward (horizons are strictly non-decreasing)
			e.Run(e.Now() + Time(next())*17 + 1)
		}
	}
	e.Run(e.Now() + Time(1)<<21)
	return trace
}

// FuzzScheduler feeds the same op script to the engine and the oracle and
// requires identical dispatch traces.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 20, 0, 3, 200})
	f.Add([]byte{0, 255, 40, 0, 1, 0, 3, 9, 0, 3, 3, 1, 0, 2, 0, 77, 3, 255})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		sameTraces(t, "script", func(d driver) []traceRec { return runScript(d, data) })
	})
}

// TestSchedulerEquivalenceLongHaul follows one sparse timer chain over a
// long horizon: strides that grow with every hop, 500 hops in all.
func TestSchedulerEquivalenceLongHaul(t *testing.T) {
	sameTraces(t, "long haul", func(e driver) []traceRec {
		var fired []traceRec
		var tick func()
		tick = func() {
			fired = append(fired, traceRec{e.Now(), len(fired)})
			if len(fired) < 500 {
				e.at(e.Now()+Time(63+len(fired)*641), tick)
			}
		}
		e.at(0, tick)
		e.Run(Time(1) << 40)
		if len(fired) != 500 {
			t.Fatalf("fired %d, want 500", len(fired))
		}
		return fired
	})
}
