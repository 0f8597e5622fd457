package event

import (
	"math/rand"
	"sort"
	"testing"

	"dcasim/internal/simtime"
)

func TestOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-timestamp events not FIFO: %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var got []simtime.Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
		e.At(e.Now(), func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []simtime.Time{10, 10, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	for _, at := range []simtime.Time{5, 10, 15, 20} {
		e.At(at, func() { fired++ })
	}
	e.RunUntil(12)
	if fired != 2 {
		t.Fatalf("fired %d events until t=12, want 2", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	e.Run()
	if fired != 4 {
		t.Fatalf("fired %d total, want 4", fired)
	}
}

func TestRunFor(t *testing.T) {
	var e Engine
	fired := false
	e.At(100, func() { fired = true })
	e.RunFor(50)
	if fired || e.Now() != 50 {
		t.Fatalf("RunFor(50): fired=%v now=%v", fired, e.Now())
	}
	e.RunFor(50)
	if !fired || e.Now() != 100 {
		t.Fatalf("RunFor to 100: fired=%v now=%v", fired, e.Now())
	}
}

func TestPeekTime(t *testing.T) {
	var e Engine
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on an empty engine reported an event")
	}
	e.At(300, func() {})
	e.At(100, func() {})
	e.At(100, func() {})
	if at, ok := e.PeekTime(); !ok || at != 100 {
		t.Fatalf("PeekTime = (%v, %v), want (100, true)", at, ok)
	}
	e.Step()
	if at, ok := e.PeekTime(); !ok || at != 100 {
		t.Fatalf("after one step PeekTime = (%v, %v), want (100, true)", at, ok)
	}
	e.Step()
	if at, ok := e.PeekTime(); !ok || at != 300 {
		t.Fatalf("after two steps PeekTime = (%v, %v), want (300, true)", at, ok)
	}
	// Peek must not advance the clock or consume the event.
	if e.Now() != 100 || e.Pending() != 1 {
		t.Fatalf("PeekTime mutated state: now=%v pending=%d", e.Now(), e.Pending())
	}
	e.Run()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime after drain reported an event")
	}
}

func TestPeekTimeAcrossLevels(t *testing.T) {
	// The earliest event shows through PeekTime however far apart the
	// pending timestamps lie.
	for _, at := range []simtime.Time{1, 1 << 10, 1 << 20, 1 << 30, 1 << 41} {
		var e Engine
		e.At(1<<42, func() {}) // far future
		e.At(at, func() {})
		if got, ok := e.PeekTime(); !ok || got != at {
			t.Fatalf("PeekTime = (%v, %v), want (%v, true)", got, ok, at)
		}
	}
}

func TestHeapRandomized(t *testing.T) {
	// Property: events fire in nondecreasing time order regardless of
	// insertion order, including events inserted while running.
	rnd := rand.New(rand.NewSource(42))
	var e Engine
	var times []simtime.Time
	record := func() { times = append(times, e.Now()) }
	for i := 0; i < 500; i++ {
		at := simtime.Time(rnd.Intn(10_000))
		e.At(at, func() {
			record()
			if rnd.Intn(3) == 0 {
				e.After(simtime.Time(rnd.Intn(100)), record)
			}
		})
	}
	e.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time went backwards at %d: %v < %v", i, times[i], times[i-1])
		}
	}
	if e.Steps() != uint64(len(times)) {
		t.Fatalf("Steps() = %d, fired %d", e.Steps(), len(times))
	}
}
