package event

import (
	"math/rand"
	"sort"
	"testing"

	"dcasim/internal/simtime"
)

// engineAPI is the surface the differential and fuzz harnesses drive on
// both the production Engine (binary heap) and the refEngine (sorted
// slice).
type engineAPI interface {
	Now() simtime.Time
	Steps() uint64
	Pending() int
	PeekTime() (simtime.Time, bool)
	Schedule(t simtime.Time, h Handler, p Payload)
	ScheduleAfter(d simtime.Time, h Handler, p Payload)
	Step() bool
	RunUntil(t simtime.Time)
}

var (
	_ engineAPI = (*Engine)(nil)
	_ engineAPI = (*refEngine)(nil)
)

// fired is one observed dispatch.
type fired struct {
	at  simtime.Time
	tag uint64
}

// splitmix64 is the deterministic bit mixer the chaos handler uses to
// derive follow-up work from its payload, so both engines replay the
// exact same nested-scheduling cascade.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaosDeltas is the schedule-delta menu: the Table II DRAM constants
// (in ps), the 4 GHz CPU cycle, the off-chip latency, zero (same-time),
// values next to powers of two, and far-future values up to 2^45 ps.
// FuzzEngineOps indexes it, so its order is part of the fuzz corpus.
var chaosDeltas = []simtime.Time{
	0, 1, 250, 1670, 3330, 5000, 7500, 8000, 15000, 30000, 50000,
	255, 256, 257, 65535, 65536, 65537,
	1 << 24, 1<<24 + 1, 1 << 32, 1<<32 - 1,
	1 << 40, 1<<40 + 7, 1 << 45,
}

// chaosHandler records every dispatch and deterministically schedules
// follow-up events derived from its payload, exercising the
// schedule-while-firing paths (same-time bursts included) on both
// engines identically.
type chaosHandler struct {
	e   engineAPI
	log []fired
}

func (h *chaosHandler) OnEvent(now simtime.Time, p Payload) {
	h.log = append(h.log, fired{at: now, tag: p.U64})
	x := splitmix64(p.U64)
	switch x % 8 {
	case 0: // one follow-up at a menu delta
		d := chaosDeltas[(x>>8)%uint64(len(chaosDeltas))]
		h.e.Schedule(now+d, h, Payload{U64: x})
	case 1: // same-time burst scheduled from inside a running event
		for i := uint64(0); i < 3; i++ {
			h.e.Schedule(now, h, Payload{U64: x + i})
		}
	case 2: // a small uniform delay
		h.e.ScheduleAfter(simtime.Time(x%512), h, Payload{U64: x ^ 1})
	}
}

// runScript drives e through a deterministic op script derived from
// seed and returns the full dispatch log.
func runScript(e engineAPI, h *chaosHandler, seed int64, t *testing.T) []fired {
	rnd := rand.New(rand.NewSource(seed))
	h.e = e
	for op := 0; op < 2000; op++ {
		switch rnd.Intn(10) {
		case 0, 1, 2, 3: // schedule at a menu delta
			d := chaosDeltas[rnd.Intn(len(chaosDeltas))]
			e.Schedule(e.Now()+d, h, Payload{U64: uint64(op)})
		case 4: // schedule at a uniform delta
			e.ScheduleAfter(simtime.Time(rnd.Int63n(200_000)), h, Payload{U64: uint64(op) | 1<<32})
		case 5: // same-time burst
			for i := 0; i < rnd.Intn(6)+1; i++ {
				e.Schedule(e.Now(), h, Payload{U64: uint64(op)<<8 | uint64(i) | 1<<33})
			}
		case 6: // a few steps
			for i := rnd.Intn(4); i >= 0; i-- {
				e.Step()
			}
		case 7: // bounded run, sometimes a huge clock jump
			d := simtime.Time(rnd.Int63n(100_000))
			if rnd.Intn(10) == 0 {
				d = simtime.Time(rnd.Int63n(1 << 42))
			}
			e.RunUntil(e.Now() + d)
		case 8: // drain a chunk
			for i := 0; i < 50 && e.Step(); i++ {
			}
		case 9: // schedule far future then peek
			e.ScheduleAfter(simtime.Time(rnd.Int63n(1<<43)), h, Payload{U64: uint64(op) | 1<<34})
			if _, ok := e.PeekTime(); !ok {
				t.Fatalf("seed %d op %d: PeekTime empty right after scheduling", seed, op)
			}
		}
	}
	// Drain everything, capping runaway self-scheduling cascades.
	for i := 0; i < 200_000 && e.Step(); i++ {
	}
	return h.log
}

// TestDifferentialVsHeapOracle proves pop-order identity: the Engine's
// heap dispatches the exact same (time, payload) sequence as the
// sorted-slice reference for randomized schedules covering same-time
// bursts, nested scheduling, huge RunUntil jumps, and far-future
// traffic.
func TestDifferentialVsHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		var eng Engine
		refEng := &refEngine{}
		eh := &chaosHandler{}
		rh := &chaosHandler{}
		elog := runScript(&eng, eh, seed, t)
		rlog := runScript(refEng, rh, seed, t)
		if len(elog) != len(rlog) {
			t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(elog), len(rlog))
		}
		for i := range elog {
			if elog[i] != rlog[i] {
				t.Fatalf("seed %d: dispatch %d diverged: engine %+v, reference %+v", seed, i, elog[i], rlog[i])
			}
		}
		if eng.Now() != refEng.Now() || eng.Steps() != refEng.Steps() || eng.Pending() != refEng.Pending() {
			t.Fatalf("seed %d: final state diverged: engine (now %v, steps %d, pending %d) vs reference (now %v, steps %d, pending %d)",
				seed, eng.Now(), eng.Steps(), eng.Pending(), refEng.Now(), refEng.Steps(), refEng.Pending())
		}
	}
}

// TestQueueDifferential drives the heap directly against a sorted
// slice of the same keys: interleaved pushes and pops, with heavy
// same-timestamp collisions, must pop identical entries, and the heap
// minimum must always be the slice's front.
func TestQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []entry
		var seq uint64
		for op := 0; op < 5000 || len(ref) > 0; op++ {
			if op < 5000 && (rnd.Intn(3) > 0 || len(ref) == 0) {
				seq++
				x := entry{at: simtime.Time(rnd.Int63n(50)) * 256 * simtime.Time(rnd.Intn(4)+1), seq: seq, idx: int32(op)}
				h.push(x)
				i := sort.Search(len(ref), func(i int) bool { return refBefore(x, ref[i]) })
				ref = append(ref, entry{})
				copy(ref[i+1:], ref[i:])
				ref[i] = x
			} else {
				got, want := h.pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("seed %d op %d: heap popped %+v, reference %+v", seed, op, got, want)
				}
			}
			if len(h.q) != len(ref) {
				t.Fatalf("seed %d op %d: heap holds %d entries, reference %d", seed, op, len(h.q), len(ref))
			}
			if len(ref) > 0 && h.q[0] != ref[0] {
				t.Fatalf("seed %d op %d: heap minimum %+v, reference %+v", seed, op, h.q[0], ref[0])
			}
		}
	}
}
