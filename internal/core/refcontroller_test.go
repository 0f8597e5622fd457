package core

// The reference oracle of the conformance tests: the pre-index
// controller, kept as a test-only linear scan. Queues are plain slices,
// every scheduling slot linearly scans them re-Peeking each entry,
// remove is an O(N) shift, and the RRPC decay eagerly walks all banks.
// It reads the same design traits as the production controller, states
// each algorithm's key components itself, and keeps its own BLISS
// blacklist.

import (
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/simtime"
)

type refEntry struct {
	Acc          dram.Access
	ReqType      RequestType
	priorityRead bool
	enqueued     simtime.Time
	seq          uint64
}

type refController struct {
	eng          *event.Engine
	ch           *dram.Channel
	cfg          Config
	rowHitFirst  bool
	blacklisting bool
	bl           bliss
	byRequest    bool
	twoLevel     bool

	readQ     []*refEntry
	writeQ    []*refEntry
	overflowR []*refEntry
	overflowW []*refEntry

	draining    bool
	scheduleAll bool
	rrpc        []uint8
	busy        bool
	seq         uint64

	stats Stats

	onIssue func(e *refEntry, now simtime.Time, fromRead, viaOFS bool)

	// breakKey, when non-nil, corrupts every row-hit-first key before it
	// is compared: the harness's self-test uses it to prove that a
	// reference wrong in one key component diverges from the controller.
	breakKey func(key *[4]int64)
}

func newRefController(eng *event.Engine, ch *dram.Channel, cfg Config) *refController {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t, _ := cfg.Design.traits()
	alg := cfg.Algorithm.Canonical()
	return &refController{
		eng:          eng,
		ch:           ch,
		cfg:          cfg,
		rowHitFirst:  alg != AlgFCFS,
		blacklisting: alg == AlgBLISS,
		byRequest:    t.byRequest,
		twoLevel:     t.twoLevel,
		rrpc:         make([]uint8, ch.Banks()),
	}
}

func (c *refController) Enqueue(acc dram.Access, reqType RequestType) {
	c.seq++
	e := &refEntry{Acc: acc, ReqType: reqType, enqueued: c.eng.Now(), seq: c.seq}
	toWrite := acc.Kind.IsWrite() || c.byRequest && reqType != ReadReq
	if !toWrite && !acc.Kind.IsWrite() {
		e.priorityRead = reqType == ReadReq
	}
	if toWrite {
		if len(c.writeQ) < c.cfg.WriteQueueCap {
			c.writeQ = append(c.writeQ, e)
		} else {
			c.overflowW = append(c.overflowW, e)
		}
	} else {
		if len(c.readQ) < c.cfg.ReadQueueCap {
			c.readQ = append(c.readQ, e)
		} else {
			c.overflowR = append(c.overflowR, e)
		}
	}
	c.kick()
}

func (c *refController) kick() {
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

func (c *refController) pick(now simtime.Time) (e *refEntry, fromRead, viaOFS bool) {
	c.updateDrainState()
	c.updateScheduleAll()

	if c.draining {
		if e := c.best(c.writeQ, now, nil); e != nil {
			return e, false, false
		}
	}

	var filter func(*refEntry) bool
	if c.twoLevel && !c.scheduleAll {
		filter = func(e *refEntry) bool { return e.priorityRead }
	}
	if e := c.best(c.readQ, now, filter); e != nil {
		return e, true, false
	}

	if c.twoLevel && !c.scheduleAll {
		if e := c.best(c.readQ, now, c.ofsEligible); e != nil {
			return e, true, true
		}
	}

	if len(c.writeQ) > c.writeLowCount() {
		if e := c.best(c.writeQ, now, nil); e != nil {
			return e, false, false
		}
	}
	return nil, false, false
}

func (c *refController) ofsEligible(e *refEntry) bool {
	if e.priorityRead {
		return false
	}
	if c.ch.Peek(e.Acc.Loc) != dram.RowConflict {
		return true
	}
	return c.rrpc[c.ch.GlobalBank(e.Acc.Loc)] < c.cfg.FlushFactor
}

// best linearly scans q and returns the minimum-key candidate under the
// per-candidate key [blacklisted, !rowHit, dirMismatch, seq]; FCFS keys
// on seq alone. Under BLISS the blacklist is consulted once per scan
// that sees at least one filter-passing candidate — the same set of
// times the indexed controller consults it.
func (c *refController) best(q []*refEntry, now simtime.Time, filter func(*refEntry) bool) *refEntry {
	lastDir := c.ch.LastDir()
	var pick *refEntry
	var pickKey [4]int64
	var black uint64
	consulted := false
	for _, e := range q {
		if filter != nil && !filter(e) {
			continue
		}
		key := [4]int64{0, 0, 0, int64(e.seq)}
		if c.rowHitFirst {
			if c.blacklisting && !consulted {
				black, consulted = c.bl.blacklist(now), true
			}
			if black>>uint(e.Acc.App)&1 != 0 {
				key[0] = 1
			}
			if c.ch.Peek(e.Acc.Loc) != dram.RowHit {
				key[1] = 1
			}
			dir := dram.DirRead
			if e.Acc.Kind.IsWrite() {
				dir = dram.DirWrite
			}
			if lastDir != dram.DirNone && dir != lastDir {
				key[2] = 1
			}
			if c.breakKey != nil {
				c.breakKey(&key)
			}
		}
		if pick == nil || refLess(key, pickKey) {
			pick, pickKey = e, key
		}
	}
	return pick
}

func refLess(a, b [4]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func (c *refController) issue(e *refEntry, fromRead, viaOFS bool, now simtime.Time) {
	if fromRead {
		c.remove(&c.readQ, e)
		c.refill(&c.readQ, &c.overflowR, c.cfg.ReadQueueCap)
		c.stats.ReadQueueWait += now - e.enqueued
	} else {
		c.remove(&c.writeQ, e)
		c.refill(&c.writeQ, &c.overflowW, c.cfg.WriteQueueCap)
		c.stats.WriteQueueWait += now - e.enqueued
	}

	if e.Acc.Kind.IsWrite() {
		c.stats.WritesIssued++
	} else if e.priorityRead {
		c.stats.PRIssued++
		c.touchRRPC(c.ch.GlobalBank(e.Acc.Loc))
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
	if c.blacklisting {
		c.bl.onServed(now, e.Acc.App)
	}
	c.busy = true
	c.eng.Schedule(done, c, event.Payload{Ptr: e})
}

func (c *refController) OnEvent(now simtime.Time, p event.Payload) {
	e := p.Ptr.(*refEntry)
	cb := e.Acc.Done
	c.busy = false
	cb.Invoke(now)
	c.kick()
}

// touchRRPC is the eager decay the controller's lazy epoch scheme must
// reproduce.
func (c *refController) touchRRPC(bank int) {
	for i := range c.rrpc {
		if c.rrpc[i] > 0 {
			c.rrpc[i]--
		}
	}
	c.rrpc[bank] = 7
}

func (c *refController) updateDrainState() {
	hi := int(float64(c.cfg.WriteQueueCap)*c.cfg.WriteFlushHigh + 0.5)
	if !c.draining && len(c.writeQ) >= hi {
		c.draining = true
		c.stats.ForcedFlushes++
	}
	if c.draining && len(c.writeQ) <= c.writeLowCount() {
		c.draining = false
	}
}

func (c *refController) writeLowCount() int {
	return int(float64(c.cfg.WriteQueueCap)*c.cfg.WriteFlushLow + 0.5)
}

func (c *refController) updateScheduleAll() {
	if !c.twoLevel {
		return
	}
	occ := float64(len(c.readQ)) / float64(c.cfg.ReadQueueCap)
	if !c.scheduleAll && occ > c.cfg.ScheduleAllHigh {
		c.scheduleAll = true
		c.stats.ScheduleAllOn++
	} else if c.scheduleAll && occ < c.cfg.ScheduleAllLow {
		c.scheduleAll = false
	}
}

func (c *refController) remove(q *[]*refEntry, e *refEntry) {
	s := *q
	for i, x := range s {
		if x == e {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			*q = s[:len(s)-1]
			return
		}
	}
	panic("core: entry not found in reference queue")
}

func (c *refController) refill(q, overflow *[]*refEntry, cap int) {
	for len(*q) < cap && len(*overflow) > 0 {
		*q = append(*q, (*overflow)[0])
		(*overflow)[0] = nil
		*overflow = (*overflow)[1:]
	}
}
