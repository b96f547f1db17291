// Package sim implements the discrete-event simulation engine at the heart
// of hostsim.
//
// The engine owns a virtual clock (nanosecond resolution), a binary-heap
// event queue ordered by (time, scheduling sequence), and a seeded random
// source. Everything in a simulation — packet arrivals, CPU work
// completions, timers — is an event. The engine is strictly
// single-threaded and deterministic: events fire in strictly ascending
// (time, sequence) order, so events at the same timestamp fire in
// scheduling order, and all randomness flows from the engine's seed.
//
// The scheduling fast path is allocation-free in steady state: fired and
// stopped events return to a per-engine free list, Timer.Reset reschedules
// a pending timer in place, and the AtArg/AfterArg variants carry a
// pointer argument into the callback so call sites need no capturing
// closure.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run.
type Time int64

// maxTime is the horizon used when no bound applies (Step).
const maxTime = Time(1<<63 - 1)

// Duration converts t to a time.Duration from the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

func (t Time) String() string { return time.Duration(t).String() }

// An event is a callback scheduled at a time. seq breaks timestamp ties in
// FIFO order so the simulation is deterministic; it also doubles as the
// generation guard that keeps stale Timer handles from touching a pooled
// event after it has been recycled for a new schedule.
//
// An event carries either fn (niladic) or fnA+arg (one-argument): the
// argument form lets hot paths schedule a prebound function with a pointer
// payload instead of allocating a capturing closure per event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	fnA func(any)
	arg any
	idx int32 // index in the engine's heap; -1 once popped or cancelled
}

// Timer is a handle to a scheduled event that may be cancelled or
// rescheduled before it fires. Timers are small values: store and copy
// them freely. The zero Timer is valid and never pending.
type Timer struct {
	e   *event
	eng *Engine
	seq uint64 // must match e.seq, else e was recycled for another schedule
}

// valid reports whether the handle still refers to its own live event
// (pending in the queue, not fired, not recycled).
func (t *Timer) valid() bool {
	return t != nil && t.e != nil && t.e.seq == t.seq && t.e.idx >= 0
}

// Stop cancels the timer. It reports whether the timer was pending (false
// if it already fired, was stopped, or is the zero Timer). The handle
// drops its event reference either way, so a stopped-then-pooled event can
// never be resurrected through a stale handle.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if !t.valid() {
		t.e = nil
		return false
	}
	t.eng.q.remove(t.e)
	t.eng.release(t.e)
	t.e = nil
	return true
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool { return t.valid() }

// When returns the time the timer is scheduled to fire, or 0 if it is not
// pending.
func (t *Timer) When() Time {
	if !t.valid() {
		return 0
	}
	return t.e.at
}

// Reset reschedules a pending timer to fire at absolute time at, keeping
// its callback. The event is re-keyed in place in the heap. Like a fresh
// schedule, the reset timer moves to the back of the FIFO tie-break order
// at its new timestamp. Reset reports whether the timer was pending; a
// fired or stopped timer cannot be revived — schedule a new one instead.
func (t *Timer) Reset(at Time) bool {
	if !t.valid() {
		return false
	}
	eng := t.eng
	if at < eng.now {
		panic(fmt.Sprintf("sim: resetting timer to %v before now %v", at, eng.now))
	}
	ev := t.e
	ev.at = at
	ev.seq = eng.seq
	eng.seq++
	t.seq = ev.seq
	eng.q.fix(int(ev.idx))
	return true
}

// Engine drives a simulation run.
type Engine struct {
	now    Time
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool
	q      eventHeap
	free   []*event // recycled event structs (steady-state scheduling is allocation-free)
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.q) }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// alloc takes an event from the free list, or heap-allocates one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{idx: -1}
}

// release returns a fired or cancelled event to the free list. The seq it
// carries stays in place until the struct is reused, so stale Timer
// handles see idx -1 (not pending) now and a mismatched seq later.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.fnA = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

func (e *Engine) scheduleAt(t Time, fn func(), fnA func(any), arg any) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.fnA = fnA
	ev.arg = arg
	e.seq++
	e.q.push(ev)
	return Timer{e: ev, eng: e, seq: ev.seq}
}

// At schedules fn at absolute time t and returns a cancellable Timer.
// Scheduling in the past panics: it always indicates a logic error.
func (e *Engine) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	return e.scheduleAt(t, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. It is At for hot paths: the
// callback is typically a prebound method value stored once per object, so
// scheduling allocates nothing (a pointer-shaped arg boxes for free).
func (e *Engine) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	return e.scheduleAt(t, nil, fn, arg)
}

// After schedules fn after delay d.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// AfterArg schedules fn(arg) after delay d.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// Halt stops the run loop after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue empties, the horizon passes, or
// Halt is called. It returns the time of the last executed event (or the
// horizon, whichever is smaller once the horizon is hit).
//
// The horizon is exclusive: an event scheduled exactly at the horizon does
// not run, so a run to horizon H observes the half-open interval [0, H).
func (e *Engine) Run(horizon Time) Time {
	e.halted = false
	for len(e.q) > 0 && !e.halted {
		ev := e.q.popBefore(horizon)
		if ev == nil {
			e.now = horizon
			return e.now
		}
		e.dispatch(ev)
	}
	if e.now < horizon && len(e.q) == 0 {
		// Queue drained before the horizon: time still advances to it so
		// rate metrics divide by the full window.
		e.now = horizon
	}
	return e.now
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	ev := e.q.popBefore(maxTime)
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// dispatch advances the clock to ev, recycles the record, and runs the
// callback. The callback fields are read out first: the event struct may
// be reused for a schedule performed inside the callback itself.
func (e *Engine) dispatch(ev *event) {
	e.now = ev.at
	e.fired++
	fn, fnA, arg := ev.fn, ev.fnA, ev.arg
	e.release(ev)
	if fnA != nil {
		fnA(arg)
	} else {
		fn()
	}
}
