package core

import (
	"testing"

	"dcasim/internal/addrmap"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/rng"
	"dcasim/internal/simtime"
)

// pickDriver keeps a controller loaded in a closed loop: every completed
// access enqueues the next one of a fixed, pre-generated stream, so the
// number of accesses in flight stays constant.
type pickDriver struct {
	ctrl   *Controller
	stream []diffOp
	next   int
}

func (d *pickDriver) enqueueNext() {
	op := d.stream[d.next]
	d.next = (d.next + 1) % len(d.stream)
	op.acc.Done = event.Callback{H: d}
	d.ctrl.Enqueue(op.acc, op.req)
}

// OnEvent implements event.Handler: an access completed.
func (d *pickDriver) OnEvent(simtime.Time, event.Payload) { d.enqueueNext() }

// pickStream is a random stream over one channel of the bench preset
// (16 banks, four applications): a third of the accesses are writes,
// and the reads split between cache read requests (PRs) and the tag
// probes and victim reads of writebacks and refills (LRs). Rows are
// drawn from 8 per bank, so hits, closed banks and conflicts all occur.
func pickStream(n int) []diffOp {
	r := rng.New(11)
	ops := make([]diffOp, n)
	for i := range ops {
		kind, req := dram.ReadData, ReadReq
		switch x := r.Intn(12); {
		case x < 4:
			kind = []dram.Kind{dram.WriteTag, dram.WriteData}[r.Intn(2)]
			req = []RequestType{WritebackReq, RefillReq}[r.Intn(2)]
		case x < 6:
			kind = []dram.Kind{dram.ReadTag, dram.ReadData}[r.Intn(2)]
			req = []RequestType{WritebackReq, RefillReq}[r.Intn(2)]
		default:
			kind = []dram.Kind{dram.ReadTag, dram.ReadData}[r.Intn(2)]
		}
		ops[i] = diffOp{
			acc: dram.Access{
				Kind:  kind,
				Loc:   addrmap.Loc{Bank: int32(r.Intn(16)), Row: int64(r.Intn(8)), Col: int32(r.Intn(64))},
				Bytes: 64,
				App:   r.Intn(4),
			},
			req: req,
		}
	}
	return ops
}

// BenchmarkControllerPick times one scheduling slot of a channel's
// controller under BLISS with the bench preset's 64-entry read and write
// queues kept loaded: 96 accesses stay in flight, so the write queue
// fills to its drain threshold and drains, and under DCA the read
// queue's occupancy moves across the ScheduleAll thresholds. One
// iteration is one event: an access completes, the next one is
// enqueued, and the controller picks and issues.
func BenchmarkControllerPick(b *testing.B) {
	for _, d := range []Design{DCA, CD} {
		b.Run(d.String(), func(b *testing.B) {
			eng := &event.Engine{}
			ch := dram.NewChannel(dram.StackedDRAM(), addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64})
			drv := &pickDriver{ctrl: NewController(eng, ch, DefaultConfig(d), 4), stream: pickStream(1 << 14)}
			for i := 0; i < 96; i++ {
				drv.enqueueNext()
			}
			for i := 0; i < 1<<14; i++ { // reach the pools' high-water marks
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}
