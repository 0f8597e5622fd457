package core

import (
	"fmt"
	"math/bits"

	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/sched"
	"dcasim/internal/simtime"
)

// Entry is one queued DRAM access together with the request context the
// controllers classify on. Entries are pooled by the controller: the
// access is embedded by value and records are recycled through a free
// list once their completion fires, so steady-state enqueue/issue/
// complete cycles allocate nothing.
type Entry struct {
	Acc     dram.Access
	ReqType RequestType

	// priorityRead is true for read accesses belonging to cache read
	// requests (PRs); it is derived in Enqueue.
	priorityRead bool
	enqueued     simtime.Time
	seq          uint64

	// Scheduling metadata precomputed at enqueue so the pick loops do no
	// address math: the access's dense global bank and its lane (PR
	// read / LR read / write).
	gb   int32
	lane uint8

	// Intrusive links: every architected-queue entry sits on its
	// (bank, lane) FIFO list, and additionally on that list's row-hit
	// sublist when its row matches the bank's open row.
	bPrev, bNext *Entry
	hPrev, hNext *Entry
	inHit        bool
}

// PriorityRead reports the PR/LR classification assigned at enqueue time.
func (e *Entry) PriorityRead() bool { return e.priorityRead }

// Seq returns the entry's global arrival sequence number (the age
// component of the scheduling key), exposed for the conformance harness.
func (e *Entry) Seq() uint64 { return e.seq }

// Lanes segregate entries by the static attributes the priority key
// consumes: PR reads and LR reads share the read bus direction but differ
// under DCA's two-level classification; writes drive the bus the other
// way. Within one (bank, lane) list every entry therefore has the same
// direction and the same PR/LR class, so only row-hit status, blacklist
// status, and age distinguish them.
const (
	lanePRRead = iota // reads belonging to cache read requests
	laneLRRead        // reads belonging to writeback/refill requests
	laneWrite
	laneCount
)

const (
	laneMaskPR  uint8 = 1 << lanePRRead
	laneMaskAll uint8 = 1<<laneCount - 1
)

// laneMismatch reports whether lane's bus direction differs from the last
// burst's (the FR-FCFS turnaround-amortising key component).
func laneMismatch(lane int, lastDir dram.Dir) bool {
	if lastDir == dram.DirNone {
		return false
	}
	if lane == laneWrite {
		return lastDir != dram.DirWrite
	}
	return lastDir != dram.DirRead
}

// bankLane is the pair of intrusive lists holding one bank's entries of
// one lane: the full FIFO (seq order) and its row-hit sublist. Each
// list's head seq and application are cached beside it (valid while the
// head is non-nil), so a pick compares and admits heads without loading
// them; only the winner is read.
type bankLane struct {
	mainHead, mainTail *Entry
	hitHead, hitTail   *Entry
	mainSeq, hitSeq    uint64
	mainApp, hitApp    int
}

// setMainHead makes e (possibly nil) the head of the FIFO list.
func (bl *bankLane) setMainHead(e *Entry) {
	bl.mainHead = e
	if e != nil {
		bl.mainSeq, bl.mainApp = e.seq, e.Acc.App
	}
}

// setHitHead makes e (possibly nil) the head of the row-hit sublist.
func (bl *bankLane) setHitHead(e *Entry) {
	bl.hitHead = e
	if e != nil {
		bl.hitSeq, bl.hitApp = e.seq, e.Acc.App
	}
}

// qindex is one architected queue (read or write) indexed by global bank
// and lane. Bitmaps record which (lane, bank) lists are non-empty so a
// pick consults only populated banks; stale marks banks whose open row
// changed since their hit sublists were last rebuilt (rebuilt lazily, on
// the next consultation, from the row-change notifications the channel
// delivers — never by re-Peeking every entry).
type qindex struct {
	banks    [][laneCount]bankLane
	nonEmpty [laneCount]uint64 // per-lane bitmap of banks with entries
	hitBanks [laneCount]uint64 // per-lane bitmap of banks with row hits
	stale    uint64            // banks whose hit sublists need a rebuild
	count    int

	// Per lane, appBits has bit a set while the lane holds an entry of
	// application a < napps, counted in appCnt[a*laneCount+lane];
	// wideCnt counts the entries of the other applications, which
	// hasAllowed always admits (napps is at most 64, the mask's range).
	// They let a pick prove "no candidate is admitted by this phase" in
	// O(lanes) and skip the phase instead of walking every list to find
	// nothing — under BLISS this is the steady state of
	// single-application (alone) runs, whose only app re-blacklists
	// after every fourth service.
	appCnt  []int32
	appBits [laneCount]uint64
	wideCnt [laneCount]int32
	napps   int
}

func (q *qindex) init(nbanks, apps int) {
	q.banks = make([][laneCount]bankLane, nbanks)
	q.napps = min(apps, 64)
	q.appCnt = make([]int32, q.napps*laneCount)
}

// countApp adds d (+1 or -1) to the count of app's entries in lane.
func (q *qindex) countApp(app int, lane uint8, d int32) {
	if uint(app) >= uint(q.napps) {
		q.wideCnt[lane] += d
		return
	}
	i := app*laneCount + int(lane)
	q.appCnt[i] += d
	if q.appCnt[i] == 0 {
		q.appBits[lane] &^= 1 << uint(app)
	} else {
		q.appBits[lane] |= 1 << uint(app)
	}
}

// hasAllowed reports whether any queued entry in the allowed lanes
// may belong to an application the phase's allowed-mask admits (i.e.
// whether a restricted scan phase can possibly find a candidate).
// Applications outside [0, napps) count as admitted: beyond the mask's
// 64-bit range appAllowed admits them too, and within it a false yes
// only costs a scan that finds nothing.
func (q *qindex) hasAllowed(laneMask uint8, allowed uint64) bool {
	for lane := 0; lane < laneCount; lane++ {
		if laneMask&(1<<uint(lane)) != 0 && (q.appBits[lane]&allowed != 0 || q.wideCnt[lane] > 0) {
			return true
		}
	}
	return false
}

// add appends e (already carrying gb and lane) to its FIFO list, and to
// the row-hit sublist when its row matches the bank's open row. Appends
// preserve seq order because seq is globally increasing and spilled
// entries refill strictly in arrival order.
func (q *qindex) add(e *Entry, openRow int64) {
	bl := &q.banks[e.gb][e.lane]
	e.bPrev = bl.mainTail
	e.bNext = nil
	if bl.mainTail != nil {
		bl.mainTail.bNext = e
	} else {
		bl.setMainHead(e)
	}
	bl.mainTail = e
	bit := uint64(1) << uint(e.gb)
	q.nonEmpty[e.lane] |= bit
	if q.stale&bit == 0 && e.Acc.Loc.Row == openRow {
		e.inHit = true
		e.hPrev = bl.hitTail
		e.hNext = nil
		if bl.hitTail != nil {
			bl.hitTail.hNext = e
		} else {
			bl.setHitHead(e)
		}
		bl.hitTail = e
		q.hitBanks[e.lane] |= bit
	}
	q.countApp(e.Acc.App, e.lane, 1)
	q.count++
}

// unlink removes e from its lists in O(1).
func (q *qindex) unlink(e *Entry) {
	bl := &q.banks[e.gb][e.lane]
	if e.bPrev != nil {
		e.bPrev.bNext = e.bNext
	} else {
		bl.setMainHead(e.bNext)
	}
	if e.bNext != nil {
		e.bNext.bPrev = e.bPrev
	} else {
		bl.mainTail = e.bPrev
	}
	e.bPrev, e.bNext = nil, nil
	bit := uint64(1) << uint(e.gb)
	if bl.mainHead == nil {
		q.nonEmpty[e.lane] &^= bit
	}
	if e.inHit {
		if e.hPrev != nil {
			e.hPrev.hNext = e.hNext
		} else {
			bl.setHitHead(e.hNext)
		}
		if e.hNext != nil {
			e.hNext.hPrev = e.hPrev
		} else {
			bl.hitTail = e.hPrev
		}
		e.hPrev, e.hNext = nil, nil
		e.inHit = false
		if bl.hitHead == nil {
			q.hitBanks[e.lane] &^= bit
		}
	}
	q.countApp(e.Acc.App, e.lane, -1)
	q.count--
}

// freshen rebuilds the hit sublists of every stale, populated bank. At
// most one bank goes stale per issued access (the activated one), so the
// amortised cost is the handful of entries queued at that bank.
func (q *qindex) freshen(rows []int64) {
	if q.stale == 0 {
		return
	}
	dirty := q.stale & (q.nonEmpty[0] | q.nonEmpty[1] | q.nonEmpty[2])
	for dirty != 0 {
		gb := bits.TrailingZeros64(dirty)
		dirty &^= 1 << uint(gb)
		q.rebuildHit(gb, rows[gb])
	}
	q.stale = 0
}

func (q *qindex) rebuildHit(gb int, row int64) {
	bls := &q.banks[gb]
	bit := uint64(1) << uint(gb)
	for lane := range bls {
		bl := &bls[lane]
		bl.hitHead, bl.hitTail = nil, nil
		q.hitBanks[lane] &^= bit
		for e := bl.mainHead; e != nil; e = e.bNext {
			if e.Acc.Loc.Row == row {
				e.inHit = true
				e.hPrev = bl.hitTail
				e.hNext = nil
				if bl.hitTail != nil {
					bl.hitTail.hNext = e
				} else {
					bl.setHitHead(e)
				}
				bl.hitTail = e
			} else if e.inHit {
				e.inHit = false
				e.hPrev, e.hNext = nil, nil
			}
		}
		if bl.hitHead != nil {
			q.hitBanks[lane] |= bit
		}
	}
}

// spillQueue holds entries beyond the architected queue capacities in
// arrival order. Consumed slots are cleared immediately and the buffer is
// compacted as the head advances, so a long-lived spill never pins the
// consumed prefix of its backing array.
type spillQueue struct {
	buf  []*Entry
	head int
}

func (s *spillQueue) push(e *Entry) { s.buf = append(s.buf, e) }
func (s *spillQueue) len() int      { return len(s.buf) - s.head }

func (s *spillQueue) pop() *Entry {
	e := s.buf[s.head]
	s.buf[s.head] = nil
	s.head++
	if s.head == len(s.buf) {
		s.buf = s.buf[:0]
		s.head = 0
	} else if s.head >= 32 && s.head*2 >= len(s.buf) {
		n := copy(s.buf, s.buf[s.head:])
		for i := n; i < len(s.buf); i++ {
			s.buf[i] = nil
		}
		s.buf = s.buf[:n]
		s.head = 0
	}
	return e
}

// Stats aggregates the controller-level counters the evaluation consumes.
type Stats struct {
	PRIssued      int64
	LRIssued      int64
	WritesIssued  int64
	OFSIssues     int64 // LRs issued through the opportunistic flush path
	ScheduleAllOn int64 // times the hysteresis engaged
	ForcedFlushes int64 // write drains triggered by the high threshold
	IdleSlots     int64 // scheduling slots with nothing eligible

	ReadQueueWait  simtime.Time // summed queue residency of read-queue issues
	WriteQueueWait simtime.Time
}

// Controller schedules accesses onto one DRAM channel according to a
// Design. It is event-driven: Enqueue inserts work and the controller
// re-evaluates whenever the channel completes an access or new work
// arrives.
//
// Scheduling is O(1)-amortised per slot: entries live on per-bank indexed
// FIFO lists with incrementally maintained row-hit sublists, picks walk
// non-empty-bank bitmaps in priority-class order (policy phase, row hit,
// bus direction, age — exactly the linear scan's [4]int64 key), removal
// is intrusive unlinking, and the RRPC decay is a lazy epoch scheme. The
// policy phases come from the configured algorithm's sched.Instance; the
// schedule produced is bit-identical to the reference linear scan, which
// the conformance tests replay side by side for each of the three
// policies.
type Controller struct {
	eng *event.Engine
	ch  *dram.Channel
	cfg Config

	// The design's queue-mapping rule and whether its two-level PR/LR
	// machinery (ScheduleAll, OFS) is active.
	route    func(kind dram.Kind, req RequestType) bool
	twoLevel bool

	// pol is the per-channel scheduling-policy instance; rowHitFirst
	// caches its (constant) RowHitFirst answer.
	pol         sched.Instance
	rowHitFirst bool

	rq, wq         qindex
	spillR, spillW spillQueue

	// rows shadows each bank's open row (-1 precharged), maintained by
	// the channel's row-change notification; row changes also mark the
	// bank stale in both queue indexes.
	rows []int64

	draining    bool
	scheduleAll bool
	busy        bool
	seq         uint64

	// Lazy RRPC decay: the eager scheme decrements every bank's 3-bit
	// counter on each PR issue and sets the touched bank to 7. Storing
	// (value, epoch) per bank and a global PR-issue epoch derives the
	// same value on read — max(0, val - (prEpoch - epoch)) — in O(1)
	// per touch instead of O(banks).
	prEpoch uint64
	rrpcVal []uint8
	rrpcEp  []uint64

	// Thresholds that are pure functions of the config, precomputed.
	// ScheduleAll engages at a read-queue count of saOn or more and
	// releases below saOff (see newController).
	writeHi, writeLo int
	saOn, saOff      int

	// Restriction state of the current scan phase, loaded by enterPhase:
	// with a mask-representable phase (curMaskOK) the restricted scans
	// test one mask bit per entry; otherwise they fall back to per-entry
	// PhaseAllows(curPhase, app) queries on the policy instance.
	curMask   uint64
	curMaskOK bool
	curPhase  int

	// pool is the free list of retired entries awaiting reuse.
	pool []*Entry

	stats Stats

	// onIssue, when non-nil, observes every issue decision: the chosen
	// entry, the issue time, whether it left the read queue, and whether
	// it was an opportunistic (OFS) LR issue. The conformance tests'
	// differential oracle records the schedule through it.
	onIssue func(e *Entry, now simtime.Time, fromRead, viaOFS bool)
}

// MaxBanks is the most banks (ranks × banks per rank) one channel's
// controller serves: its per-bank index is one bitmap word. The paper's
// machines have 16.
const MaxBanks = 64

// NewController builds a controller for one channel serving `apps`
// applications. The config must validate, and the channel may have at
// most MaxBanks banks.
func NewController(eng *event.Engine, ch *dram.Channel, cfg Config, apps int) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newController(eng, ch, cfg, apps, cfg.Algorithm.newInstance(apps))
}

// newController is NewController over a given policy instance, which
// the conformance tests use to inject deliberately broken policies.
func newController(eng *event.Engine, ch *dram.Channel, cfg Config, apps int, pol sched.Instance) *Controller {
	nb := ch.Banks()
	if nb > MaxBanks {
		panic(fmt.Sprintf("core: controller supports at most %d banks per channel, got %d", MaxBanks, nb))
	}
	t, _ := cfg.Design.traits()
	c := &Controller{
		eng:      eng,
		ch:       ch,
		cfg:      cfg,
		route:    t.route,
		twoLevel: t.twoLevel,
		pol:      pol,
		rows:     make([]int64, nb),
		rrpcVal:  make([]uint8, nb),
		rrpcEp:   make([]uint64, nb),
		writeHi:  int(float64(cfg.WriteQueueCap)*cfg.WriteFlushHigh + 0.5),
		writeLo:  int(float64(cfg.WriteQueueCap)*cfg.WriteFlushLow + 0.5),
	}
	c.rowHitFirst = c.pol.RowHitFirst()
	// The ScheduleAll rule compares the read queue's occupancy,
	// float64(n)/float64(cap), with ScheduleAllHigh and ScheduleAllLow.
	// Occupancy never falls as n grows, so each comparison flips at one
	// count: evaluate the rule for every n once, here, and keep the two
	// counts where it flips.
	c.saOn, c.saOff = cfg.ReadQueueCap+1, cfg.ReadQueueCap+1
	for n := cfg.ReadQueueCap; n >= 0; n-- {
		occ := float64(n) / float64(cfg.ReadQueueCap)
		if occ > cfg.ScheduleAllHigh {
			c.saOn = n
		}
		if !(occ < cfg.ScheduleAllLow) {
			c.saOff = n
		}
	}
	for i := range c.rows {
		c.rows[i] = -1
	}
	c.rq.init(nb, apps)
	c.wq.init(nb, apps)
	ch.SetRowListener(c.onRowChange)
	return c
}

// onRowChange is the channel's activate notification: it updates the
// open-row shadow and marks the bank's hit sublists stale in both queues.
func (c *Controller) onRowChange(gb int, row int64) {
	c.rows[gb] = row
	bit := uint64(1) << uint(gb)
	c.rq.stale |= bit
	c.wq.stale |= bit
}

// Design returns the controller's design.
func (c *Controller) Design() Design { return c.cfg.Design }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats clears the controller counters (used after warm-up).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// QueueDepths returns the current architected read/write queue depths,
// exposed for tests and debugging.
func (c *Controller) QueueDepths() (reads, writes int) {
	return c.rq.count, c.wq.count
}

// getEntry takes a record off the free list, or grows the pool.
func (c *Controller) getEntry() *Entry {
	if n := len(c.pool); n > 0 {
		e := c.pool[n-1]
		c.pool[n-1] = nil
		c.pool = c.pool[:n-1]
		return e
	}
	return new(Entry)
}

// putEntry returns a retired record to the free list. Enqueue sets
// every field again and unlink has cleared the links, so only the
// completion callback is dropped, lest it keep its handler reachable.
func (c *Controller) putEntry(e *Entry) {
	e.Acc.Done = event.Callback{}
	c.pool = append(c.pool, e)
}

// Enqueue routes one access into the controller's queues following the
// design's classification rule and triggers a scheduling evaluation.
func (c *Controller) Enqueue(acc dram.Access, reqType RequestType) {
	c.seq++
	e := c.getEntry()
	e.Acc = acc
	e.ReqType = reqType
	e.enqueued = c.eng.Now()
	e.seq = c.seq
	e.gb = int32(c.ch.GlobalBank(acc.Loc))
	toWrite := c.route(acc.Kind, reqType)
	e.priorityRead = !toWrite && !acc.Kind.IsWrite() && reqType == ReadReq
	switch {
	case acc.Kind.IsWrite():
		e.lane = laneWrite
	case e.priorityRead:
		e.lane = lanePRRead
	default:
		e.lane = laneLRRead
	}
	if toWrite {
		if c.wq.count < c.cfg.WriteQueueCap {
			c.wq.add(e, c.rows[e.gb])
		} else {
			c.spillW.push(e)
		}
	} else {
		if c.rq.count < c.cfg.ReadQueueCap {
			c.rq.add(e, c.rows[e.gb])
		} else {
			c.spillR.push(e)
		}
	}
	c.kick()
}

// kick evaluates the scheduler if the channel is idle.
func (c *Controller) kick() {
	if c.busy {
		return
	}
	now := c.eng.Now()
	e, fromRead, viaOFS := c.pick(now)
	if e == nil {
		c.stats.IdleSlots++
		return
	}
	c.issue(e, fromRead, viaOFS, now)
}

// pick chooses the next entry to service, returning whether it came from
// the read queue and whether it was an OFS low-priority-read issue.
func (c *Controller) pick(now simtime.Time) (e *Entry, fromRead, viaOFS bool) {
	c.updateDrainState()
	c.updateScheduleAll()

	if c.draining {
		if e := c.bestIn(&c.wq, now, laneMaskAll); e != nil {
			return e, false, false
		}
		// The write queue emptied below the capacity threshold only via
		// completions; fall through to reads.
	}

	// Read queue: single-level designs (CD, ROD) schedule every entry;
	// two-level designs (DCA) schedule PRs unless ScheduleAll engaged.
	mask := laneMaskAll
	if c.twoLevel && !c.scheduleAll {
		mask = laneMaskPR
	}
	if e := c.bestIn(&c.rq, now, mask); e != nil {
		return e, true, false
	}

	// Opportunistic flushing of LRs (two-level designs): only when no PR
	// was eligible and occupancy is below the ScheduleAll threshold
	// (guaranteed here because ScheduleAll would have widened the mask
	// above).
	if c.twoLevel && !c.scheduleAll {
		if e := c.bestOFS(now); e != nil {
			return e, true, true
		}
	}

	// Passive write flush: no read work pending, write queue above the
	// low threshold.
	if c.wq.count > c.writeLo {
		if e := c.bestIn(&c.wq, now, laneMaskAll); e != nil {
			return e, false, false
		}
	}
	return nil, false, false
}

// bestIn picks the highest-priority entry among q's lanes in laneMask
// under the policy's key: earliest admitting phase first (e.g. BLISS's
// non-blacklisted applications), then row hits (FR-FCFS), then accesses
// matching the bus's current direction, then oldest arrival. It consults
// only the banks whose lists are populated — row-hit candidates come
// straight from the per-bank hit sublists.
func (c *Controller) bestIn(q *qindex, now simtime.Time, laneMask uint8) *Entry {
	if q.count == 0 {
		return nil
	}
	if !c.rowHitFirst {
		// Pure age order: the oldest entry across the allowed lanes.
		return q.minSeqHead(laneMask)
	}
	// Consult the policy only when at least one entry is a candidate:
	// policies apply time-based state transitions (e.g. BLISS's periodic
	// blacklist clear) on consultation, so the consultation schedule must
	// see exactly the consultations the reference linear scan performs.
	var populated uint64
	for lane := 0; lane < laneCount; lane++ {
		if laneMask&(1<<uint(lane)) != 0 {
			populated |= q.nonEmpty[lane]
		}
	}
	if populated == 0 {
		return nil
	}
	q.freshen(c.rows)
	// An entry admitted by an earlier phase beats every entry admitted
	// only later, so resolve phase by phase: scan each restricted phase
	// (skipping entries it does not admit, or the whole phase when the
	// per-app counters prove it empty) and finish with the unrestricted
	// final phase, where the phase component ties and drops out of the
	// key.
	phases := c.pol.BeginPick(now)
	for p := 0; p < phases-1; p++ {
		if !c.enterPhase(q, laneMask, p) {
			continue
		}
		if e := c.classBest(q, laneMask, true); e != nil {
			return e
		}
	}
	return c.classBest(q, laneMask, false)
}

// enterPhase loads phase p's restriction into the pick state and reports
// whether the phase can possibly yield a candidate: a mask-representable
// phase admitting no queued application is skipped without walking any
// list.
func (c *Controller) enterPhase(q *qindex, laneMask uint8, p int) bool {
	c.curPhase = p
	c.curMask, c.curMaskOK = c.pol.PhaseMask(p)
	if c.curMaskOK && !q.hasAllowed(laneMask, c.curMask) {
		return false
	}
	return true
}

// minSeqHead returns the oldest entry across the allowed lanes' bank
// lists (each list head is its bank's oldest).
func (q *qindex) minSeqHead(laneMask uint8) *Entry {
	var best *Entry
	var bestSeq uint64
	for lane := 0; lane < laneCount; lane++ {
		if laneMask&(1<<uint(lane)) == 0 {
			continue
		}
		bm := q.nonEmpty[lane]
		for bm != 0 {
			gb := bits.TrailingZeros64(bm)
			bm &^= 1 << uint(gb)
			if bl := &q.banks[gb][lane]; best == nil || bl.mainSeq < bestSeq {
				best, bestSeq = bl.mainHead, bl.mainSeq
			}
		}
	}
	return best
}

// classBest walks the priority classes in key order — (row hit, same
// direction), (row hit, turnaround), (row miss, same direction), (row
// miss, turnaround) — returning the oldest candidate of the first
// non-empty class. Row-hit candidates come from the hit sublists; by the
// time a miss class is reached no eligible hit exists anywhere, so the
// first eligible entry of any bank FIFO is necessarily a miss.
func (c *Controller) classBest(q *qindex, laneMask uint8, restricted bool) *Entry {
	lastDir := c.ch.LastDir()
	for hitPass := 0; hitPass < 2; hitPass++ {
		viaHit := hitPass == 0
		for dmv := 0; dmv < 2; dmv++ {
			var best *Entry
			var bestSeq uint64
			for lane := 0; lane < laneCount; lane++ {
				if laneMask&(1<<uint(lane)) == 0 {
					continue
				}
				if laneMismatch(lane, lastDir) != (dmv == 1) {
					continue
				}
				bm := q.nonEmpty[lane]
				if viaHit {
					bm = q.hitBanks[lane]
				}
				for bm != 0 {
					gb := bits.TrailingZeros64(bm)
					bm &^= 1 << uint(gb)
					best, bestSeq = c.listBest(&q.banks[gb][lane], viaHit, restricted, best, bestSeq)
				}
			}
			if best != nil {
				return best
			}
			if lastDir == dram.DirNone {
				// Every lane matched the (vacuous) direction; there is
				// no second direction pass.
				break
			}
		}
	}
	return nil
}

// listBest returns the better (older) of best and the first entry of
// one of bl's lists — its row-hit sublist when viaHit — that the
// current phase admits when restricted. The list head is judged on its
// cached seq and application; only a head the phase rejects makes the
// pick load entries.
func (c *Controller) listBest(bl *bankLane, viaHit, restricted bool, best *Entry, bestSeq uint64) (*Entry, uint64) {
	head, seq, app := bl.mainHead, bl.mainSeq, bl.mainApp
	if viaHit {
		head, seq, app = bl.hitHead, bl.hitSeq, bl.hitApp
	}
	if best != nil && seq > bestSeq {
		return best, bestSeq
	}
	if !restricted || c.appAllowed(app) {
		return head, seq
	}
	// Lists are seq-ascending, so the walk stops once it passes best:
	// no later node can beat it.
	for e := head; ; {
		if viaHit {
			e = e.hNext
		} else {
			e = e.bNext
		}
		if e == nil || best != nil && e.seq > bestSeq {
			return best, bestSeq
		}
		if c.appAllowed(e.Acc.App) {
			return e, e.seq
		}
	}
}

// appAllowed tests app against the current phase restriction. In mask
// mode, apps outside bits 0..63 are always admitted (negative apps
// convert to huge unsigned values), matching the Instance contract and
// hasAllowed's accounting.
func (c *Controller) appAllowed(app int) bool {
	if c.curMaskOK {
		return uint(app) >= 64 || c.curMask>>uint(app)&1 != 0
	}
	return c.pol.PhaseAllows(c.curPhase, app)
}

// bestOFS implements the OFS criteria (§IV-C) over the LR lane: an LR is
// eligible if its bank shows no row conflict (a hit, or the bank is
// precharged) or the bank's RRPC is below the flushing factor (the bank
// has not been touched by PRs recently). Row hits are always eligible;
// whole banks become eligible when precharged or cool.
func (c *Controller) bestOFS(now simtime.Time) *Entry {
	q := &c.rq
	if q.nonEmpty[laneLRRead] == 0 {
		return nil
	}
	q.freshen(c.rows)
	// As in bestIn, consult the policy only when the eligible set is
	// non-empty, mirroring the reference scan's per-candidate checks.
	eligible := q.hitBanks[laneLRRead] != 0
	if !eligible {
		bm := q.nonEmpty[laneLRRead]
		for bm != 0 {
			gb := bits.TrailingZeros64(bm)
			bm &^= 1 << uint(gb)
			if c.bankFlushable(gb) {
				eligible = true
				break
			}
		}
	}
	if !eligible {
		return nil
	}
	if !c.rowHitFirst {
		var best *Entry
		var bestSeq uint64
		bm := q.nonEmpty[laneLRRead]
		for bm != 0 {
			gb := bits.TrailingZeros64(bm)
			bm &^= 1 << uint(gb)
			bl := &q.banks[gb][laneLRRead]
			if flushable := c.bankFlushable(gb); flushable || bl.hitHead != nil {
				best, bestSeq = c.listBest(bl, !flushable, false, best, bestSeq)
			}
		}
		return best
	}
	phases := c.pol.BeginPick(now)
	for p := 0; p < phases-1; p++ {
		if !c.enterPhase(q, 1<<laneLRRead, p) {
			continue
		}
		if e := c.ofsClassBest(true); e != nil {
			return e
		}
	}
	return c.ofsClassBest(false)
}

func (c *Controller) ofsClassBest(restricted bool) *Entry {
	q := &c.rq
	// Row hits first (all OFS-eligible; direction ties across the lane).
	var best *Entry
	var bestSeq uint64
	bm := q.hitBanks[laneLRRead]
	for bm != 0 {
		gb := bits.TrailingZeros64(bm)
		bm &^= 1 << uint(gb)
		best, bestSeq = c.listBest(&q.banks[gb][laneLRRead], true, restricted, best, bestSeq)
	}
	if best != nil {
		return best
	}
	// Then misses, only in flushable banks; no eligible hit exists at
	// this point, so bank FIFO walks yield misses.
	bm = q.nonEmpty[laneLRRead]
	for bm != 0 {
		gb := bits.TrailingZeros64(bm)
		bm &^= 1 << uint(gb)
		if c.bankFlushable(gb) {
			best, bestSeq = c.listBest(&q.banks[gb][laneLRRead], false, restricted, best, bestSeq)
		}
	}
	return best
}

// bankFlushable reports whether every LR queued at gb passes the OFS
// check: the bank is precharged, or cool (RRPC below the flush factor).
func (c *Controller) bankFlushable(gb int) bool {
	return c.rows[gb] == -1 || c.rrpcNow(gb) < c.cfg.FlushFactor
}

// issue services e on the channel and schedules the completion event.
func (c *Controller) issue(e *Entry, fromRead, viaOFS bool, now simtime.Time) {
	if fromRead {
		c.rq.unlink(e)
		c.refill(&c.rq, &c.spillR, c.cfg.ReadQueueCap)
		c.stats.ReadQueueWait += now - e.enqueued
	} else {
		c.wq.unlink(e)
		c.refill(&c.wq, &c.spillW, c.cfg.WriteQueueCap)
		c.stats.WriteQueueWait += now - e.enqueued
	}

	if e.Acc.Kind.IsWrite() {
		c.stats.WritesIssued++
	} else if e.priorityRead {
		c.stats.PRIssued++
		c.touchRRPC(int(e.gb))
	} else {
		c.stats.LRIssued++
		if viaOFS {
			c.stats.OFSIssues++
		}
	}

	if c.onIssue != nil {
		c.onIssue(e, now, fromRead, viaOFS)
	}

	done := c.ch.Issue(&e.Acc, now)
	c.pol.OnServed(now, e.Acc.App)
	c.busy = true
	c.eng.Schedule(done, c, event.Payload{Ptr: e})
}

// OnEvent implements event.Handler: it fires at an access's data
// completion time, retires the entry, and re-evaluates the scheduler.
func (c *Controller) OnEvent(now simtime.Time, p event.Payload) {
	e := p.Ptr.(*Entry)
	cb := e.Acc.Done
	c.putEntry(e)
	c.busy = false
	cb.Invoke(now)
	c.kick()
}

// touchRRPC applies the RRIP-style update — every bank counter decays by
// one (floor zero) and the bank just accessed by a PR becomes most recent
// (7) — lazily: one epoch bump plus one store.
func (c *Controller) touchRRPC(bank int) {
	c.prEpoch++
	c.rrpcVal[bank] = 7
	c.rrpcEp[bank] = c.prEpoch
}

// rrpcNow derives bank's current counter from its last-touch record.
func (c *Controller) rrpcNow(bank int) uint8 {
	d := c.prEpoch - c.rrpcEp[bank]
	v := c.rrpcVal[bank]
	if d >= uint64(v) {
		return 0
	}
	return v - uint8(d)
}

// RRPC exposes a bank's counter for tests.
func (c *Controller) RRPC(bank int) uint8 { return c.rrpcNow(bank) }

func (c *Controller) updateDrainState() {
	if !c.draining && c.wq.count >= c.writeHi {
		c.draining = true
		c.stats.ForcedFlushes++
	}
	if c.draining && c.wq.count <= c.writeLo {
		c.draining = false
	}
}

func (c *Controller) updateScheduleAll() {
	if !c.twoLevel {
		return
	}
	if n := c.rq.count; !c.scheduleAll && n >= c.saOn {
		c.scheduleAll = true
		c.stats.ScheduleAllOn++
	} else if c.scheduleAll && n < c.saOff {
		c.scheduleAll = false
	}
}

// refill tops an architected queue up from its spill queue in arrival
// order.
func (c *Controller) refill(q *qindex, sp *spillQueue, capacity int) {
	for q.count < capacity && sp.len() > 0 {
		e := sp.pop()
		q.add(e, c.rows[e.gb])
	}
}
