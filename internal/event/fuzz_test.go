package event

import (
	"testing"

	"dcasim/internal/simtime"
)

// FuzzEngineOps fuzzes the kernel against its sorted-slice reference:
// an arbitrary byte string is interpreted as an op program — schedules
// at DRAM-like, power-of-two-adjacent, and far-future deltas,
// same-timestamp bursts, steps, RunUntil jumps, peeks, and
// deliberately-past schedules — applied to both engines in lockstep.
// Any divergence in dispatch order, clocks, pending counts, peeks, or
// panic behaviour fails. The seed corpus in
// testdata/fuzz/FuzzEngineOps covers each op and deltas from 1 ps to
// 2^47 ps; `make fuzz-short` runs this alongside the decoder and cache
// fuzzers.
func FuzzEngineOps(f *testing.F) {
	// One seed per op family plus a mixed program; the checked-in
	// corpus extends these with boundary-heavy variants.
	f.Add([]byte{0, 3, 7, 1, 0x40, 0x10, 3, 3, 3})
	f.Add([]byte{5, 9, 0, 2, 8, 35, 4, 0xff, 0x7f, 3, 3, 3, 3})
	f.Add([]byte{6, 0, 0, 7, 0, 0, 6, 0, 0, 4, 0, 0x80})
	f.Add([]byte{2, 8, 40, 2, 8, 12, 4, 0xff, 0xff, 6, 0, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		var eng Engine
		refEng := &refEngine{}
		eh := &chaosHandler{e: &eng}
		rh := &chaosHandler{e: refEng}
		engines := [2]engineAPI{&eng, refEng}
		handlers := [2]*chaosHandler{eh, rh}

		var tag uint64
		events := 0
		for pc := 0; pc+2 < len(program) && events < 4096; pc += 3 {
			op, a, b := program[pc], uint64(program[pc+1]), uint64(program[pc+2])
			tag++
			switch op % 8 {
			case 0: // DRAM-constant delta, small multiple
				d := chaosDeltas[a%uint64(len(chaosDeltas))] * simtime.Time(b%3+1)
				for i, e := range engines {
					e.Schedule(e.Now()+d, handlers[i], Payload{U64: tag})
				}
				events++
			case 1: // uniform 16-bit delta
				d := simtime.Time(a | b<<8)
				for i, e := range engines {
					e.ScheduleAfter(d, handlers[i], Payload{U64: tag})
				}
				events++
			case 2: // exponential delta, up to 2^47 ps
				d := simtime.Time(a+1) << (b % 48)
				for i, e := range engines {
					e.ScheduleAfter(d, handlers[i], Payload{U64: tag})
				}
				events++
			case 3: // one step
				if engines[0].Step() != engines[1].Step() {
					t.Fatal("Step() availability diverged")
				}
			case 4: // bounded run with a possibly-large jump
				d := simtime.Time(a|b<<8) << (a % 24)
				for _, e := range engines {
					e.RunUntil(e.Now() + d)
				}
			case 5: // same-time burst
				n := int(a%16) + 1
				at := engines[0].Now() + simtime.Time(b)
				for i := 0; i < n; i++ {
					tag++
					for j, e := range engines {
						e.Schedule(at, handlers[j], Payload{U64: tag})
					}
					events++
				}
			case 6: // peek must agree
				wt, wok := engines[0].PeekTime()
				ht, hok := engines[1].PeekTime()
				if wt != ht || wok != hok {
					t.Fatalf("PeekTime diverged: engine (%v,%v) reference (%v,%v)", wt, wok, ht, hok)
				}
			case 7: // past-time schedule: both must panic, neither mutates
				d := simtime.Time(a+1) + simtime.Time(b)<<4
				for i, e := range engines {
					if e.Now() < d {
						continue
					}
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("engine %d: past-time schedule did not panic", i)
							}
						}()
						e.Schedule(e.Now()-d, handlers[i], Payload{U64: tag})
					}()
				}
			}
			if engines[0].Pending() != engines[1].Pending() {
				t.Fatalf("pending diverged: engine %d, reference %d", engines[0].Pending(), engines[1].Pending())
			}
			if engines[0].Now() != engines[1].Now() {
				t.Fatalf("clock diverged: engine %v, reference %v", engines[0].Now(), engines[1].Now())
			}
		}
		// Drain both (nested chaos scheduling is subcritical, but cap it).
		for i := 0; i < 100_000 && engines[0].Step(); i++ {
			if !engines[1].Step() {
				t.Fatal("reference ran dry before the engine")
			}
		}
		if engines[0].Pending() != engines[1].Pending() {
			t.Fatalf("post-drain pending diverged: engine %d, reference %d", engines[0].Pending(), engines[1].Pending())
		}
		if len(eh.log) != len(rh.log) {
			t.Fatalf("engine fired %d events, reference fired %d", len(eh.log), len(rh.log))
		}
		for i := range eh.log {
			if eh.log[i] != rh.log[i] {
				t.Fatalf("dispatch %d diverged: engine %+v, reference %+v", i, eh.log[i], rh.log[i])
			}
		}
		if engines[0].Steps() != engines[1].Steps() {
			t.Fatalf("steps diverged: engine %d, reference %d", engines[0].Steps(), engines[1].Steps())
		}
	})
}
