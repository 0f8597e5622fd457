package event

import (
	"fmt"
	"sort"

	"dcasim/internal/simtime"
)

// refEngine is the kernel's test reference: the Engine's method set over
// a slice of pending records kept sorted by (time, sequence). Schedule
// inserts after every record that fires first and Step takes the front,
// so pop order holds by construction, with no heap to get wrong.
type refEngine struct {
	now     simtime.Time
	seq     uint64
	steps   uint64
	pending []refRecord
}

type refRecord struct {
	key entry
	h   Handler
	p   Payload
}

// refBefore is the (time, sequence) order written plainly, independent
// of the heap's branchless comparison.
func refBefore(a, b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (e *refEngine) Now() simtime.Time { return e.now }

func (e *refEngine) Steps() uint64 { return e.steps }

func (e *refEngine) Pending() int { return len(e.pending) }

func (e *refEngine) PeekTime() (simtime.Time, bool) {
	if len(e.pending) == 0 {
		return 0, false
	}
	return e.pending[0].key.at, true
}

func (e *refEngine) Schedule(t simtime.Time, h Handler, p Payload) {
	if t < e.now {
		panic(fmt.Sprintf("event: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	r := refRecord{key: entry{at: t, seq: e.seq}, h: h, p: p}
	i := sort.Search(len(e.pending), func(i int) bool { return refBefore(r.key, e.pending[i].key) })
	e.pending = append(e.pending, refRecord{})
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = r
}

func (e *refEngine) ScheduleAfter(d simtime.Time, h Handler, p Payload) {
	e.Schedule(e.now+d, h, p)
}

func (e *refEngine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	r := e.pending[0]
	e.pending = e.pending[1:]
	e.now = r.key.at
	e.steps++
	r.h.OnEvent(r.key.at, r.p)
	return true
}

func (e *refEngine) RunUntil(t simtime.Time) {
	for len(e.pending) > 0 && e.pending[0].key.at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
