package event

import (
	"testing"

	"dcasim/internal/simtime"
)

// countHandler records fire order and payloads.
type countHandler struct {
	fired []uint64
}

func (h *countHandler) OnEvent(_ simtime.Time, p Payload) {
	h.fired = append(h.fired, p.U64)
}

// sinkHandler does nothing; used for allocation measurements.
type sinkHandler struct{}

func (*sinkHandler) OnEvent(simtime.Time, Payload) {}

// TestZeroAllocScheduling is the kernel's allocation regression test:
// once the pool, the free list and the heap have reached their
// high-water marks, a schedule/fire cycle must not allocate at all. Each
// input is a menu of delays, cycled through in bursts of 64 with a drain
// after each burst: a ramp of 0–63 ps, and the menus of the root
// package's BenchmarkEventUniform, BenchmarkEventDRAMClustered and
// BenchmarkEventSpill.
func TestZeroAllocScheduling(t *testing.T) {
	ramp := make([]simtime.Time, 64)
	for i := range ramp {
		ramp[i] = simtime.Time(i)
	}
	// Uniform up to ~1 µs.
	uniform := make([]simtime.Time, 1024)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range uniform {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		uniform[i] = simtime.Time(x%(1<<20) + 1)
	}
	for _, tc := range []struct {
		name   string
		deltas []simtime.Time
	}{
		{"ramp", ramp},
		{"uniform", uniform},
		{"dram-clustered", []simtime.Time{250, 1670, 3330, 5000, 7500, 8000, 11330, 15000, 27330, 30000, 50000}},
		{"spill", []simtime.Time{1 << 41, 1<<41 + 512, 3 << 40, 1<<41 + 3*256, 1 << 42}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			h := &sinkHandler{}
			const burst = 64
			k := 0
			cycle := func() {
				for j := 0; j < burst; j++ {
					e.ScheduleAfter(tc.deltas[k%len(tc.deltas)], h, Payload{U64: uint64(j), I64: -1})
					k++
				}
				e.Run()
			}
			// Warm to the high-water marks over a full pass of the menu.
			for i := 0; i < 4+len(tc.deltas)/burst; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Fatalf("steady-state scheduling allocates %.2f per %d-event burst, want 0", avg, burst)
			}
		})
	}
}

// TestZeroAllocPrebuiltFunc checks the closure convenience API is also
// allocation-free when the func value is built once and reused (the
// pattern bench_test.go's BenchmarkEventEngine measures).
func TestZeroAllocPrebuiltFunc(t *testing.T) {
	var e Engine
	fn := func() {}
	for i := 0; i < 128; i++ {
		e.After(simtime.Time(i%7), fn)
	}
	e.Run()

	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(simtime.Time(i%7), fn)
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("prebuilt-func scheduling allocates %.2f per burst, want 0", avg)
	}
}

// TestSameTimeHandlerOrder asserts the determinism contract for the
// handler API: events scheduled for the same timestamp fire in schedule
// order, including events scheduled from inside a running event and
// records recycled through the free list.
func TestSameTimeHandlerOrder(t *testing.T) {
	var e Engine
	h := &countHandler{}
	for round := 0; round < 3; round++ { // recycle pool records each round
		h.fired = h.fired[:0]
		for i := 0; i < 100; i++ {
			e.Schedule(5, h, Payload{U64: uint64(i)})
		}
		// An event scheduled *while running* at the same timestamp must
		// fire after everything already queued for that timestamp.
		e.CallAt(5, Func(func(now simtime.Time) {
			e.Schedule(now, h, Payload{U64: 1000})
		}))
		e.Run()
		if len(h.fired) != 101 {
			t.Fatalf("round %d: fired %d events, want 101", round, len(h.fired))
		}
		for i := 0; i < 100; i++ {
			if h.fired[i] != uint64(i) {
				t.Fatalf("round %d: slot %d fired payload %d, want %d", round, i, h.fired[i], i)
			}
		}
		if h.fired[100] != 1000 {
			t.Fatalf("round %d: nested same-time event fired out of order: %v", round, h.fired[100])
		}
	}
}

// TestCallbackSemantics pins the Callback helper contract: zero
// callbacks are no-ops and are dropped (not queued) by CallAt.
func TestCallbackSemantics(t *testing.T) {
	var e Engine
	var zero Callback
	if zero.Valid() {
		t.Error("zero Callback reports Valid")
	}
	zero.Invoke(0) // must not panic

	e.CallAt(10, Callback{})
	if e.Pending() != 0 {
		t.Errorf("zero callback was queued: %d pending", e.Pending())
	}

	var got simtime.Time
	cb := Func(func(now simtime.Time) { got = now })
	if !cb.Valid() {
		t.Error("Func callback reports invalid")
	}
	e.CallAfter(7, cb)
	e.Run()
	if got != 7 {
		t.Errorf("callback fired at %v, want 7", got)
	}
}

// TestPoolRecycling checks the free list actually bounds the pool: the
// pool's high-water mark is the maximum number of simultaneously
// pending events, not the total scheduled.
func TestPoolRecycling(t *testing.T) {
	var e Engine
	h := &sinkHandler{}
	for i := 0; i < 10_000; i++ {
		e.Schedule(e.Now(), h, Payload{})
		e.Run()
	}
	if len(e.pool) > 4 {
		t.Errorf("pool grew to %d records for 1 pending event max", len(e.pool))
	}
	if e.Steps() != 10_000 {
		t.Errorf("Steps = %d, want 10000", e.Steps())
	}
}
