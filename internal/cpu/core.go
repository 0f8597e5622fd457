// Package cpu models the processor side of the system: a trace-driven
// approximation of the paper's out-of-order cores (4 GHz, 8-wide, 192 ROB
// entries) plus the private L1 and shared L2 in front of the DRAM cache.
//
// The model captures exactly what the paper's evaluation depends on:
// loads that miss the SRAM hierarchy are latency-critical — the core can
// run ahead only until its reorder-buffer window or MSHRs fill — while
// stores and writebacks drain asynchronously and never stall the core.
// Instruction throughput between memory operations is paced at the
// dispatch width.
package cpu

import (
	"dcasim/internal/cache"
	"dcasim/internal/dcache"
	"dcasim/internal/event"
	"dcasim/internal/simtime"
	"dcasim/internal/workload"
)

// Params configures a core.
type Params struct {
	FreqGHz float64 // clock frequency
	Width   int     // dispatch width (instructions per cycle)
	ROB     int     // reorder-buffer entries (run-ahead window)
	MSHRs   int     // maximum outstanding long-latency loads
}

// DefaultParams matches Table II: 4 GHz, 8-wide, 192 ROB entries, with
// 16 MSHRs (gem5's default L1 MSHR provisioning is of this order).
func DefaultParams() Params {
	return Params{FreqGHz: 4, Width: 8, ROB: 192, MSHRs: 16}
}

type inflight struct {
	idx  int64 // instruction index at dispatch
	done bool
}

// Core is one trace-driven core.
type Core struct {
	eng *event.Engine
	id  int
	par Params
	src *workload.Gen
	l1  *cache.Cache
	l2  *L2

	slot simtime.Time // dispatch time per instruction

	target     int64
	executed   int64
	cpuTime    simtime.Time
	pendingOp  workload.Op
	havePend   bool
	pendingAt  simtime.Time
	loads      []inflight
	notDone    int
	waiting    bool
	stepQueued bool
	finished   bool
	finishedAt simtime.Time
	onFinish   func(*Core)

	Loads     int64
	Stores    int64
	L1Misses  int64
	StallTime simtime.Time
}

// NewCore builds a core over its workload generator, private L1, and the
// shared L2.
func NewCore(eng *event.Engine, id int, par Params, src *workload.Gen, l1 *cache.Cache, l2 *L2) *Core {
	cycle := simtime.FromNS(1 / par.FreqGHz)
	return &Core{
		eng:  eng,
		id:   id,
		par:  par,
		src:  src,
		l1:   l1,
		l2:   l2,
		slot: cycle / simtime.Time(par.Width),
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Finished reports whether the core retired its instruction target.
func (c *Core) Finished() bool { return c.finished }

// FinishTime returns when the target was reached (valid once Finished).
func (c *Core) FinishTime() simtime.Time { return c.finishedAt }

// Executed returns retired instructions so far.
func (c *Core) Executed() int64 { return c.executed }

// IPC returns retired instructions per cycle over the run (valid once
// Finished).
func (c *Core) IPC() float64 {
	if c.finishedAt == 0 {
		return 0
	}
	cycles := float64(c.finishedAt) / float64(simtime.FromNS(1/c.par.FreqGHz))
	return float64(c.target) / cycles
}

// Event kinds a Core schedules on itself, carried in Payload.U64.
const (
	coreStep     = iota // advance the dispatch loop
	coreLoadDone        // a long-latency load completed (Payload.I64 = idx)
)

// OnEvent implements event.Handler for the core's own events.
func (c *Core) OnEvent(_ simtime.Time, p event.Payload) {
	if p.U64 == coreLoadDone {
		c.completeLoad(p.I64)
		return
	}
	c.step()
}

// Run starts the core toward target retired instructions; onFinish fires
// when it gets there.
func (c *Core) Run(target int64, onFinish func(*Core)) {
	c.target = target
	c.onFinish = onFinish
	c.eng.Schedule(c.eng.Now(), c, event.Payload{U64: coreStep})
}

// Warm advances the core's trace through the functional hierarchy for
// memops memory operations without consuming simulated time, warming the
// core's L1, the shared L2 array, and, through b, the DRAM-cache tags
// and miss predictor of every contents b feeds. The contents are pure
// sinks — nothing they hold feeds back into the stream — so b may defer
// their calls; the caller flushes it once warm-up is over. Warm uses
// nothing else of the core, so a core built with a nil engine and L2 can
// warm.
//
//dcalint:noalloc
func (c *Core) Warm(memops int64, l2 *cache.Cache, b *dcache.WarmBatch) {
	for i := int64(0); i < memops; i++ {
		op := c.src.Next()
		if op.Store {
			res := c.l1.Access(op.Addr, true)
			if !res.Hit && res.VictimValid && res.VictimDirty {
				warmInstall(l2, b, res.VictimAddr, true, c.id)
			}
			continue
		}
		res := c.l1.Access(op.Addr, false)
		if !res.Hit {
			if res.VictimValid && res.VictimDirty {
				warmInstall(l2, b, res.VictimAddr, true, c.id)
			}
			// A load miss reads the DRAM cache, then installs clean.
			if res := l2.Access(op.Addr, false); !res.Hit {
				b.Read(op.Addr, c.id, op.PC)
				if res.VictimValid && res.VictimDirty {
					b.Write(res.VictimAddr, c.id)
				}
			}
		}
	}
	c.l1.ResetStats()
}

// warmInstall is the functional warm-up fill of the L2 array: a dirty
// victim becomes a DRAM-cache warm write.
//
//dcalint:noalloc
func warmInstall(l2 *cache.Cache, b *dcache.WarmBatch, addr int64, dirty bool, coreID int) {
	res := l2.Access(addr, dirty)
	if !res.Hit && res.VictimValid && res.VictimDirty {
		b.Write(res.VictimAddr, coreID)
	}
}

// step advances the core as far as the trace, the ROB window, and the
// MSHRs allow, then parks until either the next dispatch slot or a load
// completion.
func (c *Core) step() {
	c.stepQueued = false
	now := c.eng.Now()
	if c.cpuTime < now {
		// Time the core could not dispatch (blocked on memory).
		c.StallTime += now - c.cpuTime
		c.cpuTime = now
	}
	for {
		if c.finished {
			return
		}
		c.popCompleted()
		if c.executed >= c.target {
			c.finish()
			return
		}
		// Fetch the next memory operation lazily so its dispatch time
		// is pinned once.
		if !c.havePend {
			c.pendingOp = c.src.Next()
			c.havePend = true
			c.pendingAt = c.cpuTime + simtime.Time(c.pendingOp.Gap+1)*c.slot
		}
		// Blocked on the ROB window? The oldest incomplete load pins
		// retirement; dispatch may run at most ROB instructions ahead.
		if len(c.loads) > 0 {
			head := c.loads[0]
			if !head.done && c.executed+int64(c.pendingOp.Gap)+1-head.idx >= int64(c.par.ROB) {
				c.waiting = true
				return
			}
		}
		if c.notDone >= c.par.MSHRs {
			c.waiting = true
			return
		}
		if c.pendingAt > now {
			c.eng.Schedule(c.pendingAt, c, event.Payload{U64: coreStep})
			c.stepQueued = true
			return
		}
		op := c.pendingOp
		c.havePend = false
		c.executed += int64(op.Gap) + 1
		// A stall may have carried cpuTime past the dispatch point that
		// was computed before the stall; never move the clock backward.
		c.cpuTime = simtime.Max(c.cpuTime, c.pendingAt)
		c.execMem(op)
	}
}

// execMem performs the memory operation at the current dispatch point.
func (c *Core) execMem(op workload.Op) {
	if op.Store {
		c.Stores++
		res := c.l1.Access(op.Addr, true)
		if !res.Hit {
			c.L1Misses++
			if res.VictimValid && res.VictimDirty {
				c.l2.Write(res.VictimAddr, c.id)
			}
		}
		return
	}
	c.Loads++
	res := c.l1.Access(op.Addr, false)
	if res.Hit {
		return // L1 hit latency is hidden by the OoO window
	}
	c.L1Misses++
	if res.VictimValid && res.VictimDirty {
		c.l2.Write(res.VictimAddr, c.id)
	}
	idx := c.executed
	c.loads = append(c.loads, inflight{idx: idx})
	c.notDone++
	c.l2.Read(op.Addr, c.id, op.PC,
		event.Callback{H: c, P: event.Payload{U64: coreLoadDone, I64: idx}})
}

// completeLoad marks the load dispatched at instruction idx complete and
// wakes the core if it was blocked.
func (c *Core) completeLoad(idx int64) {
	for i := range c.loads {
		if c.loads[i].idx == idx && !c.loads[i].done {
			c.loads[i].done = true
			c.notDone--
			break
		}
	}
	if c.waiting && !c.stepQueued {
		c.waiting = false
		c.step()
	}
}

// popCompleted retires completed loads from the head of the FIFO
// (in-order retirement).
func (c *Core) popCompleted() {
	i := 0
	for i < len(c.loads) && c.loads[i].done {
		i++
	}
	if i > 0 {
		c.loads = append(c.loads[:0], c.loads[i:]...)
	}
}

func (c *Core) finish() {
	c.finished = true
	c.finishedAt = c.cpuTime
	if c.onFinish != nil {
		c.onFinish(c)
	}
}
