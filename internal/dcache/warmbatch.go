package dcache

// warmBatchCalls is how many calls a WarmBatch defers. A batch's
// set-associative records take 16 KB, which fit a host's 32–48 KB L1
// data cache, so they are still there when their calls run.
const warmBatchCalls = 128

// WarmBatch defers the functional warm-up's DRAM-cache calls and applies
// them in batches. A flush has each contents first load the set of every
// call, so that the host overlaps those cache misses, and then apply the
// calls in their original order as WarmRead and WarmWrite would. The
// contents are pure sinks — nothing they hold feeds back into the calls
// — so deferring the calls changes nothing the contents compute.
type WarmBatch struct {
	dcs   []*Contents
	n     int
	calls [warmBatchCalls]warmCall
	sets  [warmBatchCalls]int64 // each call's set in the contents being flushed
	sum   uint64                // the preloaded words, kept so the compiler keeps the loads
}

// warmCall is one deferred call: WarmWrite(addr, core) when write is
// set, WarmRead(addr, core, pc) otherwise.
type warmCall struct {
	addr  int64
	pc    uint64
	core  int
	write bool
}

// NewWarmBatch returns an empty batch whose calls go to every contents
// in dcs.
func NewWarmBatch(dcs []*Contents) *WarmBatch { return &WarmBatch{dcs: dcs} }

// Read defers WarmRead(addr, coreID, pc).
//
//dcalint:noalloc
func (b *WarmBatch) Read(addr int64, coreID int, pc uint64) {
	b.add(warmCall{addr: addr, pc: pc, core: coreID})
}

// Write defers WarmWrite(addr, coreID).
//
//dcalint:noalloc
func (b *WarmBatch) Write(addr int64, coreID int) {
	b.add(warmCall{addr: addr, core: coreID, write: true})
}

// add defers k, flushing the batch once it is full.
//
//dcalint:noalloc
func (b *WarmBatch) add(k warmCall) {
	b.calls[b.n] = k
	if b.n++; b.n == len(b.calls) {
		b.Flush()
	}
}

// Flush applies every deferred call to every contents and empties the
// batch. A call's set, found by the preload, is not found again.
//
//dcalint:noalloc
func (b *WarmBatch) Flush() {
	calls := b.calls[:b.n]
	b.n = 0
	for _, c := range b.dcs {
		b.sum += c.tags.preload(calls, b.sets[:])
		for i := range calls {
			c.warm(&calls[i], b.sets[i])
		}
	}
}
