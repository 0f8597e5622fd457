package core

// White-box tests of controller internals (lazy RRPC epochs, the spill
// ring) that need unexported access. The linear-scan reference oracle
// and the differential schedule tests are in conformance_test.go.

import (
	"testing"

	"dcasim/internal/rng"
)

// TestLazyRRPCMatchesEagerWalk drives the decay directly with random
// touch sequences and checks the derived counters against the eager
// all-banks walk after every step.
func TestLazyRRPCMatchesEagerWalk(t *testing.T) {
	_, ch, ctrl := testRig(DCA)
	eager := make([]uint8, ch.Banks())
	r := rng.New(7)
	for i := 0; i < 2000; i++ {
		bank := r.Intn(ch.Banks())
		ctrl.touchRRPC(bank)
		for j := range eager {
			if eager[j] > 0 {
				eager[j]--
			}
		}
		eager[bank] = 7
		if i%7 != 0 {
			continue
		}
		for j := range eager {
			if got := ctrl.rrpcNow(j); got != eager[j] {
				t.Fatalf("step %d: RRPC[%d] = %d, eager %d", i, j, got, eager[j])
			}
		}
	}
}

// TestSpillQueueDoesNotPinConsumedPrefix exercises the spill ring: the
// consumed prefix must be cleared and the buffer compacted, so sustained
// spill traffic cannot grow the backing array without bound.
func TestSpillQueueDoesNotPinConsumedPrefix(t *testing.T) {
	var s spillQueue
	for i := 0; i < 10_000; i++ {
		s.push(&Entry{seq: uint64(i)})
		if i%2 == 1 { // drain at half rate, then catch up
			if e := s.pop(); e.seq != uint64(i/2) {
				t.Fatalf("pop %d returned seq %d", i/2, e.seq)
			}
		}
	}
	for s.len() > 0 {
		s.pop()
	}
	if len(s.buf) != 0 || s.head != 0 {
		t.Fatalf("drained spill retains buf len %d head %d", len(s.buf), s.head)
	}
	// Push/pop in lockstep on a fresh queue: with at most one entry
	// outstanding, the backing array must not grow at all.
	var lk spillQueue
	for i := 0; i < 10_000; i++ {
		lk.push(&Entry{})
		lk.pop()
	}
	if cap(lk.buf) > 64 {
		t.Fatalf("lockstep spill grew backing array to %d", cap(lk.buf))
	}
}
