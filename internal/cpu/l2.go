package cpu

import (
	"dcasim/internal/cache"
	"dcasim/internal/dcache"
	"dcasim/internal/event"
	"dcasim/internal/simtime"
)

var _ event.Handler = (*L2)(nil)

// L2 is the shared last-level SRAM cache in front of the DRAM cache. It
// is functional with a fixed hit latency; misses go to the DRAM cache and
// merge in MSHRs. Dirty evictions become DRAM-cache writeback requests,
// optionally widened by the Lee DRAM-aware writeback policy (Fig. 19):
// when a dirty block is evicted, other dirty L2 blocks that map to the
// same DRAM-cache row are eagerly written back (and left resident clean),
// so the DRAM cache services row-batched writes.
type L2 struct {
	eng    *event.Engine
	arr    *cache.Cache
	dc     *dcache.DCache
	hitLat simtime.Time
	lee    bool

	// mshrs holds the outstanding misses, one record per block, in no
	// particular order; a lookup scans it. The cores' MSHRs bound it to
	// cores × MSHRs records.
	mshrs []mshr
	// wpool recycles drained MSHR waiter slices so misses allocate no
	// fresh slice headers in steady state.
	wpool [][]event.Callback

	Reads        int64
	ReadMisses   int64
	Writebacks   int64 // dirty evictions sent to the DRAM cache
	LeeEager     int64 // extra row-mate writebacks issued by the Lee policy
	MissLatency  simtime.Time
	MissesServed int64
}

// mshr is one outstanding L2 miss: the block, when its DRAM-cache read
// started, and the completions waiting on it.
type mshr struct {
	block   int64
	start   simtime.Time
	waiters []event.Callback
}

// NewL2 builds the shared L2, sized for mshrs outstanding misses (the
// cores' MSHRs summed).
func NewL2(eng *event.Engine, arr *cache.Cache, dc *dcache.DCache, hitLat simtime.Time, lee bool, mshrs int) *L2 {
	return &L2{
		eng:    eng,
		arr:    arr,
		dc:     dc,
		hitLat: hitLat,
		lee:    lee,
		mshrs:  make([]mshr, 0, mshrs),
	}
}

// findMSHR returns the index of block's outstanding miss, or -1.
func (l *L2) findMSHR(block int64) int {
	for i := range l.mshrs {
		if l.mshrs[i].block == block {
			return i
		}
	}
	return -1
}

// getWaiters returns an empty waiter slice, reusing a drained one.
func (l *L2) getWaiters() []event.Callback {
	if n := len(l.wpool); n > 0 {
		w := l.wpool[n-1]
		l.wpool[n-1] = nil
		l.wpool = l.wpool[:n-1]
		return w
	}
	return make([]event.Callback, 0, 4)
}

// Read services a load that missed in L1. done fires when the block is
// available to the core.
func (l *L2) Read(addr int64, coreID int, pc uint64, done event.Callback) {
	l.Reads++
	if l.arr.Touch(addr) { // hit: LRU refreshed in the same scan
		l.eng.CallAfter(l.hitLat, done)
		return
	}
	l.ReadMisses++
	if i := l.findMSHR(addr); i >= 0 {
		m := &l.mshrs[i]
		m.waiters = append(m.waiters, done)
		return
	}
	l.mshrs = append(l.mshrs, mshr{block: addr, start: l.eng.Now(), waiters: append(l.getWaiters(), done)})
	l.dc.Read(addr, coreID, pc, event.Callback{H: l, P: event.Payload{I64: addr, U64: uint64(coreID)}})
}

// OnEvent implements event.Handler: the DRAM cache finished servicing a
// miss (Payload: I64 = block address, U64 = the first requester's core
// ID).
func (l *L2) OnEvent(now simtime.Time, p event.Payload) {
	addr := p.I64
	i := l.findMSHR(addr)
	m := l.mshrs[i]
	// Retire the record before the waiters run: they may miss again,
	// on this very block if a later install evicts it.
	last := len(l.mshrs) - 1
	l.mshrs[i] = l.mshrs[last]
	l.mshrs[last] = mshr{}
	l.mshrs = l.mshrs[:last]
	l.MissLatency += now - m.start
	l.MissesServed++
	l.install(addr, false, int(p.U64))
	waiters := m.waiters
	for _, w := range waiters {
		w.Invoke(now)
	}
	for i := range waiters {
		waiters[i] = event.Callback{}
	}
	l.wpool = append(l.wpool, waiters[:0])
}

// Write installs a dirty block (an L1 dirty eviction). Allocation is
// no-fetch: stores are off the critical path in this study.
func (l *L2) Write(addr int64, coreID int) {
	l.install(addr, true, coreID)
}

// install places addr in the array and routes any dirty victim to the
// DRAM cache as a writeback request.
func (l *L2) install(addr int64, dirty bool, coreID int) {
	res := l.arr.Access(addr, dirty)
	if res.Hit || !res.VictimValid || !res.VictimDirty {
		return
	}
	l.writeback(res.VictimAddr, coreID)
	if l.lee {
		l.leeDrain(res.VictimAddr, coreID)
	}
}

func (l *L2) writeback(addr int64, coreID int) {
	l.Writebacks++
	l.dc.Writeback(addr, coreID)
}

// leeDrain implements the Lee policy: probe the victim's DRAM-row-mates
// and eagerly write back the dirty ones, leaving them resident clean.
func (l *L2) leeDrain(victim int64, coreID int) {
	lo, hi := l.dc.RowSpan(victim)
	for a := lo; a < hi; a++ {
		if a == victim {
			continue
		}
		if l.arr.Clean(a) {
			l.LeeEager++
			l.writeback(a, coreID)
		}
	}
}

// AvgMissLatency returns the mean time the L2 waited on the DRAM cache,
// the paper's L2-miss-latency metric (Figs. 12/13).
func (l *L2) AvgMissLatency() simtime.Time {
	if l.MissesServed == 0 {
		return 0
	}
	return l.MissLatency / simtime.Time(l.MissesServed)
}

// ResetStats clears counters at the warm-up boundary.
func (l *L2) ResetStats() {
	l.Reads, l.ReadMisses, l.Writebacks, l.LeeEager = 0, 0, 0, 0
	l.MissLatency, l.MissesServed = 0, 0
	l.arr.ResetStats()
}
