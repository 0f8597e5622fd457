package dcache

import (
	"fmt"

	"dcasim/internal/addrmap"
	"dcasim/internal/core"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/mainmem"
	"dcasim/internal/mempred"
	"dcasim/internal/simtime"
	"dcasim/internal/tagcache"
)

// Config assembles a DRAM cache instance.
type Config struct {
	Org       Org
	SizeBytes int64
	DRAM      addrmap.Geometry
	Timing    dram.Timing
	XORRemap  bool
	Ctrl      core.Config
	UseMAPI   bool
	TagCache  *tagcache.Config // nil disables the SRAM tag cache
	// BEARProbe models BEAR's Bandwidth Efficient Writeback Probe (Chou
	// et al., ISCA 2015): writebacks that hit skip the tag-read probe.
	// Modeled as an ideal probe filter; an extension beyond the paper's
	// baseline configurations (its related work argues DCA composes
	// with BEAR by scheduling the residual accesses).
	BEARProbe bool
	Cores     int
	// Contents is the warmed functional state to run over; nil starts
	// from an empty cache.
	Contents *Contents
}

// Stats aggregates request-level counters. DRAM- and controller-level
// counters are reported separately via DRAMStats and CtrlStats.
type Stats struct {
	ReadReqs      int64
	ReadHits      int64
	ReadMisses    int64
	WritebackReqs int64
	WritebackHits int64
	WritebackMiss int64
	RefillReqs    int64
	VictimWrites  int64 // dirty victims written to main memory
	BEARElided    int64 // writeback tag probes removed by the BEAR filter

	ReadsCompleted int64
	ReadLatency    simtime.Time // summed arrival→completion time of reads
	WastedFetches  int64        // MAP-I predicted miss but the tag probe hit
}

// AvgReadLatency returns the mean DRAM-cache read request latency, the
// quantity behind the paper's L2-miss-latency figures.
func (s Stats) AvgReadLatency() simtime.Time {
	if s.ReadsCompleted == 0 {
		return 0
	}
	return s.ReadLatency / simtime.Time(s.ReadsCompleted)
}

// ReadHitRate returns the fraction of read requests that hit.
func (s Stats) ReadHitRate() float64 {
	if s.ReadReqs == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.ReadReqs)
}

// Contents is the functional state of a DRAM cache — its geometry, tag
// store and MAP-I predictor — which functional warm-up fills and a timed
// run's DCache runs over (Config.Contents). Checkpoint and Rollback let
// several timed runs start in turn from the same warmed contents.
type Contents struct {
	geom  Geometry
	tags  *tagStore
	mapi  *mempred.MAPI
	saved *mempred.MAPI // the predictor at the last Checkpoint
}

// NewContents builds empty contents for cfg's organization, size, DRAM
// shape, predictor and core count. spare, when non-nil, is contents
// nothing uses any more: its tag-store memory is reused if large enough,
// so successive warm-ups do not each allocate a store.
func NewContents(cfg Config, spare *Contents) (*Contents, error) {
	geom, err := NewGeometry(cfg.Org, cfg.SizeBytes, cfg.DRAM)
	if err != nil {
		return nil, err
	}
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("dcache: non-positive core count %d", cfg.Cores)
	}
	var old *tagStore
	if spare != nil {
		old = spare.tags
	}
	c := &Contents{geom: geom, tags: newTagStore(geom, old)}
	if cfg.UseMAPI {
		c.mapi = mempred.New(cfg.Cores)
	}
	return c, nil
}

// Org returns the organization the contents were built for.
func (c *Contents) Org() Org { return c.geom.Org }

// Checkpoint marks the current state for Rollback. It copies the small
// MAP-I table, but only journals tag-store writes from here on rather
// than copying the store.
func (c *Contents) Checkpoint() {
	c.saved = c.mapi.Clone()
	c.tags.checkpoint()
}

// Rollback returns the contents to the last Checkpoint and reports
// whether it could. It cannot when the journal outgrew the tag store and
// was dropped; the contents then keep every change since the checkpoint.
func (c *Contents) Rollback() bool {
	saved := c.saved
	c.saved = nil
	if !c.tags.rollback() {
		return false
	}
	c.mapi = saved
	return true
}

// DCache is a die-stacked DRAM cache with tags in DRAM, running over its
// functional Contents.
type DCache struct {
	*Contents
	eng    *event.Engine
	mapper *addrmap.Mapper
	chans  []*dram.Channel
	ctrls  []*core.Controller
	mem    *mainmem.Memory
	tcache *tagcache.TagCache
	bear   bool

	// rrPool recycles retired readReq records so the read path allocates
	// nothing in steady state.
	rrPool []*readReq

	stats Stats
}

var _ event.Handler = (*DCache)(nil)

// New builds the DRAM cache over cfg.Contents (or empty contents), its
// channels, and one controller per channel.
func New(eng *event.Engine, cfg Config, mem *mainmem.Memory) (*DCache, error) {
	contents := cfg.Contents
	if contents == nil {
		var err error
		if contents, err = NewContents(cfg, nil); err != nil {
			return nil, err
		}
	} else if geom, err := NewGeometry(cfg.Org, cfg.SizeBytes, cfg.DRAM); err != nil {
		return nil, err
	} else if contents.geom != geom || (contents.mapi != nil) != cfg.UseMAPI {
		return nil, fmt.Errorf("dcache: contents were built for another cache shape or predictor setting")
	}
	if err := cfg.Ctrl.Validate(); err != nil {
		return nil, err
	}
	d := &DCache{
		Contents: contents,
		eng:      eng,
		mapper:   addrmap.NewMapper(cfg.DRAM, cfg.XORRemap),
		mem:      mem,
	}
	for i := 0; i < cfg.DRAM.Channels; i++ {
		ch := dram.NewChannel(cfg.Timing, cfg.DRAM)
		d.chans = append(d.chans, ch)
		d.ctrls = append(d.ctrls, core.NewController(eng, ch, cfg.Ctrl, cfg.Cores))
	}
	if cfg.TagCache != nil {
		if cfg.Org != SetAssoc {
			return nil, fmt.Errorf("dcache: tag cache study applies to the set-associative organization")
		}
		d.tcache = tagcache.New(*cfg.TagCache)
	}
	d.bear = cfg.BEARProbe
	return d, nil
}

// Geometry returns the derived cache geometry.
func (d *DCache) Geometry() Geometry { return d.geom }

// Stats returns the request-level counters.
func (d *DCache) Stats() Stats { return d.stats }

// DRAMStats sums the channel counters.
func (d *DCache) DRAMStats() dram.Stats {
	var s dram.Stats
	for _, ch := range d.chans {
		s.Add(ch.Stats())
	}
	return s
}

// CtrlStats sums the controller counters.
func (d *DCache) CtrlStats() core.Stats {
	var s core.Stats
	for _, c := range d.ctrls {
		cs := c.Stats()
		s.PRIssued += cs.PRIssued
		s.LRIssued += cs.LRIssued
		s.WritesIssued += cs.WritesIssued
		s.OFSIssues += cs.OFSIssues
		s.ScheduleAllOn += cs.ScheduleAllOn
		s.ForcedFlushes += cs.ForcedFlushes
		s.IdleSlots += cs.IdleSlots
		s.ReadQueueWait += cs.ReadQueueWait
		s.WriteQueueWait += cs.WriteQueueWait
	}
	return s
}

// TagCache returns the SRAM tag cache, or nil.
func (d *DCache) TagCache() *tagcache.TagCache { return d.tcache }

// Predictor returns the MAP-I instance, or nil.
func (d *DCache) Predictor() *mempred.MAPI { return d.mapi }

// ResetStats clears request, controller, channel, tag-cache, and main
// memory statistics at the warm-up boundary.
func (d *DCache) ResetStats() {
	d.stats = Stats{}
	for _, ch := range d.chans {
		ch.ResetStats()
	}
	for _, c := range d.ctrls {
		c.ResetStats()
	}
	if d.tcache != nil {
		d.tcache.ResetStats()
	}
}

func (d *DCache) enqueue(kind dram.Kind, loc addrmap.Loc, bytes, coreID int, reqType core.RequestType, done event.Callback) {
	acc := dram.Access{Kind: kind, Loc: loc, Bytes: bytes, App: coreID, Done: done}
	d.ctrls[loc.Channel].Enqueue(acc, reqType)
}

// readReq tracks one in-flight cache read request across its tag probe
// and (on a miss) the overlapped main-memory fetch. Records are pooled:
// a readReq implements event.Handler and is released back to the cache's
// free list once its last outstanding event has fired.
type readReq struct {
	d             *DCache
	addr          int64
	coreID        int
	pc            uint64
	start         simtime.Time
	predictedMiss bool
	fetchStarted  bool
	memDone       bool
	memAt         simtime.Time
	tagDone       bool
	hit           bool
	finished      bool
	done          event.Callback
}

// Event kinds a readReq schedules on itself, carried in Payload.U64.
const (
	rrTagDone  = iota // the tag probe (or TAD read) completed
	rrMemDone         // the overlapped main-memory fetch completed
	rrDataDone        // the hit-path data read completed
)

// OnEvent implements event.Handler, dispatching on the event kind.
func (r *readReq) OnEvent(now simtime.Time, p event.Payload) {
	switch p.U64 {
	case rrTagDone:
		r.afterTag(now)
	case rrMemDone:
		r.memDone = true
		r.memAt = now
		if r.tagDone && !r.hit {
			r.finishMiss(now)
		}
	case rrDataDone:
		r.complete(now)
	}
	r.maybeFree()
}

// maybeFree returns the record to the pool once no outstanding event can
// still reference it: the request finished and any speculative memory
// fetch (which may outlive a hit as a wasted fetch) has also landed.
func (r *readReq) maybeFree() {
	if !r.finished || (r.fetchStarted && !r.memDone) {
		return
	}
	d := r.d
	*r = readReq{}
	d.rrPool = append(d.rrPool, r)
}

// getReadReq takes a record off the free list, or grows the pool.
func (d *DCache) getReadReq() *readReq {
	if n := len(d.rrPool); n > 0 {
		r := d.rrPool[n-1]
		d.rrPool[n-1] = nil
		d.rrPool = d.rrPool[:n-1]
		return r
	}
	return new(readReq)
}

// Read issues a cache read request for block address addr (a block
// number, i.e. physical address >> 6). done fires when the data is
// available to the requester.
func (d *DCache) Read(addr int64, coreID int, pc uint64, done event.Callback) {
	d.stats.ReadReqs++
	r := d.getReadReq()
	*r = readReq{d: d, addr: addr, coreID: coreID, pc: pc, start: d.eng.Now(), done: done}

	if d.mapi != nil && d.mapi.PredictMiss(coreID, pc) {
		r.predictedMiss = true
		r.startFetch()
	}

	set := d.geom.SetOf(addr)
	probeKind, probeBytes := dram.ReadTag, BlockBytes
	if d.geom.Org == DirectMapped {
		probeKind, probeBytes = dram.ReadTAD, TADBytes
	}
	afterTag := event.Callback{H: r, P: event.Payload{U64: rrTagDone}}
	if d.tcache != nil {
		hit, fetches := d.tcache.Lookup(d.geom.TagBlockIndex(set), d.geom.TagRowSiblings(set))
		if hit {
			r.afterTag(d.eng.Now())
			r.maybeFree()
			return
		}
		d.enqueueTagFetches(set, fetches, coreID, core.ReadReq, afterTag)
		return
	}
	d.enqueue(probeKind, d.geom.TagLoc(set, d.mapper), probeBytes, coreID, core.ReadReq, afterTag)
}

// enqueueTagFetches issues the demanded tag-block read plus the tag
// cache's spatial prefetches of sibling tag blocks in the same row.
func (d *DCache) enqueueTagFetches(set int64, fetches, coreID int, reqType core.RequestType, done event.Callback) {
	d.enqueue(dram.ReadTag, d.geom.TagLoc(set, d.mapper), BlockBytes, coreID, reqType, done)
	issued := 1
	for _, sib := range d.geom.TagRowSiblings(set) {
		if issued >= fetches {
			break
		}
		if sib == set {
			continue
		}
		d.enqueue(dram.ReadTag, d.geom.TagLoc(sib, d.mapper), BlockBytes, coreID, reqType, event.Callback{})
		issued++
	}
}

func (r *readReq) startFetch() {
	r.fetchStarted = true
	r.d.mem.Read(event.Callback{H: r, P: event.Payload{U64: rrMemDone}})
}

func (r *readReq) afterTag(now simtime.Time) {
	d := r.d
	set, way := d.tags.lookup(r.addr)
	r.tagDone = true
	if way >= 0 {
		r.hit = true
		d.stats.ReadHits++
		d.tags.touch(set, way)
		if d.mapi != nil {
			d.mapi.Update(r.coreID, r.pc, r.predictedMiss, true)
			if r.predictedMiss {
				d.stats.WastedFetches++
			}
		}
		if d.geom.Org == SetAssoc {
			// Data read (PR), then the replacement-bit tag write.
			d.enqueue(dram.ReadData, d.geom.DataLoc(set, way, d.mapper), BlockBytes, r.coreID, core.ReadReq,
				event.Callback{H: r, P: event.Payload{U64: rrDataDone}})
			d.enqueue(dram.WriteTag, d.geom.TagLoc(set, d.mapper), BlockBytes, r.coreID, core.ReadReq, event.Callback{})
		} else {
			// The TAD probe already carried the data.
			r.complete(now)
		}
		return
	}
	d.stats.ReadMisses++
	if d.mapi != nil {
		d.mapi.Update(r.coreID, r.pc, r.predictedMiss, false)
	}
	if !r.fetchStarted {
		r.startFetch()
	} else if r.memDone {
		r.finishMiss(simtime.Max(now, r.memAt))
	}
}

func (r *readReq) finishMiss(now simtime.Time) {
	if r.finished {
		return
	}
	r.complete(now)
	r.d.stats.RefillReqs++
	r.d.write(r.addr, r.coreID, core.RefillReq)
}

func (r *readReq) complete(now simtime.Time) {
	if r.finished {
		return
	}
	r.finished = true
	r.d.stats.ReadsCompleted++
	r.d.stats.ReadLatency += now - r.start
	r.done.Invoke(now)
}

// Writeback issues a dirty-eviction write request from the upper-level
// cache. It is fire-and-forget: writebacks are never on the critical
// path.
func (d *DCache) Writeback(addr int64, coreID int) {
	d.stats.WritebackReqs++
	d.write(addr, coreID, core.WritebackReq)
}

// Event kinds the DCache schedules on itself for the write path. The
// request context is packed into Payload.U64 (kind, core, way, request
// type) with the block address or set in Payload.I64 — small scalars, so
// a write-path continuation needs no allocated closure.
const (
	dcWriteTagDone   = iota // write-path tag probe completed (I64 = addr)
	dcVictimReadDone        // victim data read completed (I64 = set)
)

func packWriteCtx(kind, coreID, way int, reqType core.RequestType) uint64 {
	return uint64(kind) | uint64(coreID)<<8 | uint64(way)<<24 | uint64(reqType)<<40
}

// OnEvent implements event.Handler for write-path continuations.
func (d *DCache) OnEvent(now simtime.Time, p event.Payload) {
	kind := int(p.U64 & 0xff)
	coreID := int(p.U64 >> 8 & 0xffff)
	way := int(p.U64 >> 24 & 0xffff)
	reqType := core.RequestType(p.U64 >> 40 & 0xff)
	switch kind {
	case dcWriteTagDone:
		d.afterWriteTag(p.I64, coreID, reqType, now)
	case dcVictimReadDone:
		// The victim's data is out of the array (Fig. 2's RDw): stream
		// it to main memory, then perform the data+tag writes.
		d.mem.Write()
		d.issueDataWrite(p.I64, way, coreID, reqType)
	}
}

// write implements the shared writeback/refill translation (Fig. 2): a
// tag read, then data+tag writes, with a victim data read when a dirty
// block must be displaced.
func (d *DCache) write(addr int64, coreID int, reqType core.RequestType) {
	set := d.geom.SetOf(addr)
	afterTag := event.Callback{H: d, P: event.Payload{
		I64: addr, U64: packWriteCtx(dcWriteTagDone, coreID, 0, reqType),
	}}

	// BEAR writeback probe: a hit needs no tag read before the writes.
	if d.bear && reqType == core.WritebackReq {
		if _, way := d.tags.lookup(addr); way >= 0 {
			d.stats.BEARElided++
			d.afterWriteTag(addr, coreID, reqType, d.eng.Now())
			return
		}
	}

	if d.tcache != nil {
		hit, fetches := d.tcache.Lookup(d.geom.TagBlockIndex(set), d.geom.TagRowSiblings(set))
		if hit {
			d.afterWriteTag(addr, coreID, reqType, d.eng.Now())
			return
		}
		d.enqueueTagFetches(set, fetches, coreID, reqType, afterTag)
		return
	}
	probeKind, probeBytes := dram.ReadTag, BlockBytes
	if d.geom.Org == DirectMapped {
		// The probe streams the whole TAD so a dirty victim's data
		// arrives with the tag — no separate victim read is needed.
		probeBytes = TADBytes
	}
	d.enqueue(probeKind, d.geom.TagLoc(set, d.mapper), probeBytes, coreID, reqType, afterTag)
}

func (d *DCache) afterWriteTag(addr int64, coreID int, reqType core.RequestType, now simtime.Time) {
	set, way := d.tags.lookup(addr)
	if way >= 0 {
		if reqType == core.WritebackReq {
			d.stats.WritebackHits++
			d.tags.setDirty(set, way)
		}
		d.tags.touch(set, way)
		d.issueDataWrite(set, way, coreID, reqType)
		return
	}

	if reqType == core.WritebackReq {
		d.stats.WritebackMiss++
	}
	vw := d.tags.victim(set)
	_, valid, dirty := d.tags.victimInfo(set, vw)
	writeVictim := valid && dirty
	d.tags.install(addr, set, vw, reqType == core.WritebackReq)
	if writeVictim {
		d.stats.VictimWrites++
		if d.geom.Org == SetAssoc {
			// Read the victim's data out of the array before
			// overwriting it (Fig. 2's RDw); completion continues in
			// OnEvent's dcVictimReadDone arm.
			d.enqueue(dram.ReadData, d.geom.DataLoc(set, vw, d.mapper), BlockBytes, coreID, reqType,
				event.Callback{H: d, P: event.Payload{
					I64: set, U64: packWriteCtx(dcVictimReadDone, coreID, vw, reqType),
				}})
			return
		}
		// Direct-mapped: the probe already carried the victim TAD.
		d.mem.Write()
	}
	d.issueDataWrite(set, vw, coreID, reqType)
}

// issueDataWrite emits the write half of a writeback/refill: WD+WT for
// the set-associative design, one combined TAD write for direct-mapped.
func (d *DCache) issueDataWrite(set int64, way, coreID int, reqType core.RequestType) {
	if d.geom.Org == SetAssoc {
		d.enqueue(dram.WriteData, d.geom.DataLoc(set, way, d.mapper), BlockBytes, coreID, reqType, event.Callback{})
		d.enqueue(dram.WriteTag, d.geom.TagLoc(set, d.mapper), BlockBytes, coreID, reqType, event.Callback{})
		return
	}
	d.enqueue(dram.WriteTAD, d.geom.TagLoc(set, d.mapper), TADBytes, coreID, reqType, event.Callback{})
}

// WarmRead performs a functional (zero-time) read used during cache
// warm-up: misses install the block clean, as a refill would, and the
// MAP-I predictor trains on the outcome.
//
//dcalint:noalloc
func (c *Contents) WarmRead(addr int64, coreID int, pc uint64) {
	c.warm(&warmCall{addr: addr, pc: pc, core: coreID}, c.geom.SetOf(addr))
}

// WarmWrite performs a functional writeback: hits become dirty, misses
// allocate dirty.
//
//dcalint:noalloc
func (c *Contents) WarmWrite(addr int64, coreID int) {
	c.warm(&warmCall{addr: addr, core: coreID, write: true}, c.geom.SetOf(addr))
}

// warm applies a warm call whose block maps to set.
//
//dcalint:noalloc
func (c *Contents) warm(k *warmCall, set int64) {
	way, vw := c.tags.lookupOrVictim(k.addr, set)
	if !k.write && c.mapi != nil {
		p := c.mapi.PredictMiss(k.core, k.pc)
		c.mapi.Update(k.core, k.pc, p, way >= 0)
	}
	switch {
	case way < 0:
		c.tags.install(k.addr, set, vw, k.write)
	case k.write:
		c.tags.setDirty(set, way)
		fallthrough
	default:
		c.tags.touch(set, way)
	}
}

// RowSpan returns the contiguous block-address window whose members map
// to the same DRAM row as addr, used by the Lee DRAM-aware L2 writeback
// policy to find row-mates.
func (d *DCache) RowSpan(addr int64) (lo, hi int64) {
	var span int64
	if d.geom.Org == SetAssoc {
		span = saSetsPerRow
	} else {
		span = dmTADsPerRow
	}
	set := d.geom.SetOf(addr)
	lo = addr - set%span
	return lo, lo + span
}
