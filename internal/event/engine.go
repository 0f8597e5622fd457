// Package event implements the discrete-event simulation kernel.
//
// Pending events sit in a binary min-heap ordered by (time, sequence):
// events scheduled for the same timestamp fire in the order they were
// scheduled, which makes whole-simulation behaviour exactly
// reproducible run to run. A run keeps only a few events pending (about
// 5 on average and 31 at most in the bench-scale runs measured), so the
// heap's sifts are short. The kernel is single-threaded by design:
// determinism of an architectural simulation is worth far more than
// intra-run parallelism, and the harness instead parallelises across
// independent simulations.
//
// Scheduling is allocation-free in steady state. Instead of a fresh
// closure per event, an event record pairs a Handler (typically the
// simulated component itself, a long-lived pointer) with a small inline
// Payload the handler uses to recover the event's context. Records live
// in a pool recycled through a free list, and each heap entry carries
// its record's (time, sequence) key inline, so a sift never loads the
// pool. The pool, the free list and the heap are reused slices: once
// they reach their high-water marks the kernel performs no per-event
// heap allocation at all.
package event

import (
	"fmt"

	"dcasim/internal/simtime"
)

// Handler receives fired events. Implementations are typically the
// long-lived simulated components themselves; per-event context travels
// in the Payload, so scheduling never needs to close over variables.
type Handler interface {
	OnEvent(now simtime.Time, p Payload)
}

// Payload is the inline per-event argument block. Handlers that service
// several event kinds conventionally use a few low bits of U64 as the
// discriminator. Ptr must hold a pointer-shaped value (a pointer, map,
// channel, or func) — boxing a non-pointer value into it would allocate,
// defeating the kernel's zero-allocation contract.
type Payload struct {
	I64 int64
	U64 uint64
	Ptr any
}

// Callback bundles a Handler with its Payload so components can hand a
// continuation across module boundaries without allocating a closure.
// The zero value is a no-op.
type Callback struct {
	H Handler
	P Payload
}

// Valid reports whether the callback has a handler attached.
func (cb Callback) Valid() bool { return cb.H != nil }

// Invoke fires the callback immediately (outside the event queue). A
// zero callback is a no-op.
func (cb Callback) Invoke(now simtime.Time) {
	if cb.H != nil {
		cb.H.OnEvent(now, cb.P)
	}
}

// funcHandler adapts a plain function to the Handler interface; the
// function travels in Payload.Ptr, so the adapter itself is stateless
// and boxing it allocates nothing.
type funcHandler struct{}

func (funcHandler) OnEvent(now simtime.Time, p Payload) {
	p.Ptr.(func(simtime.Time))(now)
}

// Func wraps fn into a Callback. The wrapper is allocation-free, but fn
// itself is usually a closure the caller allocated — use Func in tests
// and setup paths, and a real Handler on hot paths.
func Func(fn func(now simtime.Time)) Callback {
	return Callback{H: funcHandler{}, P: Payload{Ptr: fn}}
}

// thunkHandler adapts an argument-less function for At/After.
type thunkHandler struct{}

func (thunkHandler) OnEvent(_ simtime.Time, p Payload) { p.Ptr.(func())() }

// node is one pooled event record: what fires, without its key.
type node struct {
	h Handler
	p Payload
}

// entry is one pending event in the heap: its record's (time, sequence)
// key, inline so sifts compare without loading the pool, and the
// record's pool index. int32 indices are ample: two billion
// simultaneously pending events would exhaust memory long before the
// index space.
type entry struct {
	at  simtime.Time
	seq uint64
	idx int32
}

// before reports whether a fires before b: the strict total order
// (time, sequence).
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of entries under before.
type eventHeap struct {
	q []entry
}

// push adds x, sifting it up from the last leaf.
//
//dcalint:noalloc
func (h *eventHeap) push(x entry) {
	h.q = append(h.q, x)
	q := h.q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// pop removes and returns the earliest entry; the heap must not be
// empty. The last leaf sifts down from the root.
//
//dcalint:noalloc
func (h *eventHeap) pop() entry {
	q := h.q
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	h.q = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
	return top
}

// initialPending sizes the pool, the free list and the heap on an
// engine's first Schedule. It covers the most events a simulation keeps
// pending, so a run's kernel allocates once instead of growing each
// slice step by step.
const initialPending = 64

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now   simtime.Time
	seq   uint64
	steps uint64

	// hook, when set, observes every Schedule (test instrumentation).
	hook func(now, at simtime.Time)

	// pool holds event records; free recycles retired indices into it;
	// heap orders the pending ones by (time, sequence).
	pool []node
	free []int32
	heap eventHeap
}

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap.q) }

// PeekTime returns the timestamp of the earliest pending event, or
// false if the queue is empty. It never fires events or advances the
// clock.
//
//dcalint:noalloc
func (e *Engine) PeekTime() (simtime.Time, bool) {
	if len(e.heap.q) == 0 {
		return 0, false
	}
	return e.heap.q[0].at, true
}

// SetScheduleHook installs fn to observe (now, t) at every Schedule
// call, or removes the hook when fn is nil. This is test
// instrumentation (e.g. the event-delta characterization test); the
// hook must not schedule events itself.
func (e *Engine) SetScheduleHook(fn func(now, at simtime.Time)) { e.hook = fn }

// Schedule queues h to fire at absolute time t with payload p.
// Scheduling in the past is a programming error and panics: silently
// reordering time would corrupt every downstream model.
//
//dcalint:noalloc
func (e *Engine) Schedule(t simtime.Time, h Handler, p Payload) {
	if t < e.now {
		panic(fmt.Sprintf("event: schedule at %v before now %v", t, e.now))
	}
	if e.hook != nil {
		e.hook(e.now, t)
	}
	e.seq++
	idx := e.alloc()
	e.pool[idx] = node{h: h, p: p}
	e.heap.push(entry{at: t, seq: e.seq, idx: idx})
}

// ScheduleAfter queues h to fire d after the current time.
//
//dcalint:noalloc
func (e *Engine) ScheduleAfter(d simtime.Time, h Handler, p Payload) {
	e.Schedule(e.now+d, h, p)
}

// CallAt queues cb to fire at absolute time t. A zero callback is
// dropped rather than queued.
//
//dcalint:noalloc
func (e *Engine) CallAt(t simtime.Time, cb Callback) {
	if cb.H == nil {
		return
	}
	e.Schedule(t, cb.H, cb.P)
}

// CallAfter queues cb to fire d after the current time.
//
//dcalint:noalloc
func (e *Engine) CallAfter(d simtime.Time, cb Callback) { e.CallAt(e.now+d, cb) }

// At schedules fn to run at absolute time t. This is the closure
// convenience API: it is allocation-free only when fn itself is (a
// pre-built func value); hot paths should use Schedule with a Handler.
func (e *Engine) At(t simtime.Time, fn func()) {
	e.Schedule(t, thunkHandler{}, Payload{Ptr: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d simtime.Time, fn func()) { e.At(e.now+d, fn) }

// Step executes the earliest pending event. It reports whether an event
// was executed. Step is never inlined, so CPU profiles always show it
// as the frame under which every handler runs.
//
//go:noinline
//dcalint:noalloc
func (e *Engine) Step() bool {
	if len(e.heap.q) == 0 {
		return false
	}
	top := e.heap.pop()
	n := e.pool[top.idx]
	// Release the record before dispatch: the handler may schedule new
	// events, and reusing this slot immediately keeps the pool minimal.
	e.pool[top.idx] = node{}
	e.free = append(e.free, top.idx)
	e.now = top.at
	e.steps++
	n.h.OnEvent(top.at, n.p)
	return true
}

// Run executes events until the queue is empty.
//
//dcalint:noalloc
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to t. Events scheduled beyond t stay queued.
//
//dcalint:noalloc
func (e *Engine) RunUntil(t simtime.Time) {
	for {
		at, ok := e.PeekTime()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor is RunUntil relative to the current time.
//
//dcalint:noalloc
func (e *Engine) RunFor(d simtime.Time) { e.RunUntil(e.now + d) }

// alloc returns a free pool index, growing the pool only when the free
// list is empty (i.e. at a new high-water mark of pending events).
//
//dcalint:noalloc
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if e.pool == nil {
		e.reserve()
	}
	e.pool = append(e.pool, node{})
	return int32(len(e.pool) - 1)
}

// reserve sizes the pool, the free list and the heap for
// initialPending events, once per engine.
func (e *Engine) reserve() {
	e.pool = make([]node, 0, initialPending)
	e.free = make([]int32, 0, initialPending)
	e.heap.q = make([]entry, 0, initialPending)
}
