package core

import (
	"sort"
	"testing"

	"dcasim/internal/addrmap"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/simtime"
)

func testGeom() addrmap.Geometry {
	return addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 4096, BlockSize: 64}
}

func testRig(d Design) (*event.Engine, *dram.Channel, *Controller) {
	eng := &event.Engine{}
	ch := dram.NewChannel(dram.StackedDRAM(), testGeom())
	return eng, ch, NewController(eng, ch, DefaultConfig(d), 4)
}

func acc(kind dram.Kind, bank int, row int64, done func(simtime.Time)) dram.Access {
	var cb event.Callback
	if done != nil {
		cb = event.Func(done)
	}
	return dram.Access{Kind: kind, Loc: addrmap.Loc{Bank: int32(bank), Row: row}, Bytes: 64, Done: cb}
}

func TestDefaultConfigsMatchTableII(t *testing.T) {
	cd := DefaultConfig(CD)
	if cd.ReadQueueCap != 64 || cd.WriteQueueCap != 64 {
		t.Fatalf("CD queues %d/%d, want 64/64", cd.ReadQueueCap, cd.WriteQueueCap)
	}
	rod := DefaultConfig(ROD)
	if rod.ReadQueueCap != 32 || rod.WriteQueueCap != 96 {
		t.Fatalf("ROD queues %d/%d, want 32/96", rod.ReadQueueCap, rod.WriteQueueCap)
	}
	dca := DefaultConfig(DCA)
	if dca.ScheduleAllHigh != 0.85 || dca.ScheduleAllLow != 0.75 || dca.FlushFactor != 4 {
		t.Fatalf("DCA thresholds wrong: %+v", dca)
	}
	for _, d := range []Design{CD, ROD, DCA} {
		if err := DefaultConfig(d).Validate(); err != nil {
			t.Errorf("%v default config invalid: %v", d, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(CD)
	bad.ReadQueueCap = 0
	if bad.Validate() == nil {
		t.Error("zero read queue accepted")
	}
	bad = DefaultConfig(CD)
	bad.WriteFlushLow = 0.9
	bad.WriteFlushHigh = 0.5
	if bad.Validate() == nil {
		t.Error("inverted flush thresholds accepted")
	}
	bad = DefaultConfig(DCA)
	bad.FlushFactor = 9
	if bad.Validate() == nil {
		t.Error("flush factor beyond 3-bit range accepted")
	}
}

// routing checks Fig. 3 / Fig. 6: which queue each (kind, request type)
// combination lands in.
func TestQueueRouting(t *testing.T) {
	cases := []struct {
		design    Design
		kind      dram.Kind
		req       RequestType
		wantWrite bool
	}{
		// CD: by access type.
		{CD, dram.ReadTag, ReadReq, false},
		{CD, dram.ReadTag, WritebackReq, false}, // the inversion source
		{CD, dram.WriteData, WritebackReq, true},
		{CD, dram.WriteTag, ReadReq, true},
		// ROD: by request type, except WTr of a read request.
		{ROD, dram.ReadTag, ReadReq, false},
		{ROD, dram.ReadTag, WritebackReq, true}, // probe follows its request
		{ROD, dram.ReadData, RefillReq, true},
		{ROD, dram.WriteTag, ReadReq, true}, // the footnote exception
		{ROD, dram.WriteData, WritebackReq, true},
		// DCA: same mapping as CD.
		{DCA, dram.ReadTag, WritebackReq, false},
		{DCA, dram.WriteData, RefillReq, true},
	}
	for _, c := range cases {
		_, _, ctrl := testRig(c.design)
		ctrl.busy = true // prevent immediate issue so depth is observable
		ctrl.Enqueue(acc(c.kind, 0, 0, nil), c.req)
		r, w := ctrl.QueueDepths()
		gotWrite := w == 1
		if gotWrite != c.wantWrite || r+w != 1 {
			t.Errorf("%v %v/%v routed to write=%v (r=%d w=%d), want write=%v",
				c.design, c.kind, c.req, gotWrite, r, w, c.wantWrite)
		}
	}
}

// readQueueEntries collects the architected read queue in arrival (seq)
// order by walking the per-bank index.
func readQueueEntries(c *Controller) []*Entry {
	var out []*Entry
	for gb := range c.rq.banks {
		for lane := 0; lane < laneCount; lane++ {
			for e := c.rq.banks[gb][lane].mainHead; e != nil; e = e.bNext {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func TestPRLRClassification(t *testing.T) {
	_, _, ctrl := testRig(DCA)
	ctrl.busy = true
	ctrl.Enqueue(acc(dram.ReadTag, 0, 0, nil), ReadReq)
	ctrl.Enqueue(acc(dram.ReadTag, 1, 0, nil), WritebackReq)
	ctrl.Enqueue(acc(dram.ReadTag, 2, 0, nil), RefillReq)
	rq := readQueueEntries(ctrl)
	if len(rq) != 3 {
		t.Fatalf("read queue depth %d, want 3", len(rq))
	}
	if !rq[0].PriorityRead() {
		t.Error("read-request tag read must be a PR")
	}
	if rq[1].PriorityRead() || rq[2].PriorityRead() {
		t.Error("writeback/refill tag reads must be LRs")
	}
}

func TestCompletionCallback(t *testing.T) {
	eng, _, ctrl := testRig(CD)
	var doneAt simtime.Time
	ctrl.Enqueue(acc(dram.ReadTag, 0, 0, func(now simtime.Time) { doneAt = now }), ReadReq)
	eng.Run()
	if doneAt == 0 {
		t.Fatal("completion callback never fired")
	}
	tm := dram.StackedDRAM()
	want := tm.TRCD + tm.TCAS + tm.TBurst
	if doneAt != want {
		t.Fatalf("completion at %v, want %v", doneAt, want)
	}
}

// TestDCAHoldsConflictingLR reproduces the OFS decision of §IV-C: an LR
// whose bank has a row conflict and a high RRPC must wait; once enough
// PRs touch other banks (decaying the RRPC below the flushing factor),
// the LR drains.
func TestDCAHoldsConflictingLR(t *testing.T) {
	eng, ch, ctrl := testRig(DCA)

	// A PR to bank 0 opens row 1 and sets RRPC[0] = 7.
	ctrl.Enqueue(acc(dram.ReadTag, 0, 1, nil), ReadReq)
	eng.Run()
	if ctrl.RRPC(0) != 7 {
		t.Fatalf("RRPC[0] = %d after PR, want 7", ctrl.RRPC(0))
	}

	// An LR to bank 0 row 2: conflict, RRPC 7 >= FF 4 -> held.
	lrDone := false
	ctrl.Enqueue(acc(dram.ReadTag, 0, 2, func(simtime.Time) { lrDone = true }), WritebackReq)
	eng.Run()
	if lrDone {
		t.Fatal("conflicting LR in a hot bank was scheduled; OFS should hold it")
	}
	if ch.Peek(addrmap.Loc{Bank: 0, Row: 1}) != dram.RowHit {
		t.Fatal("row 1 should still be open — the LR must not have closed it")
	}

	// Three PRs to other banks decay RRPC[0] to 4 — still held — and a
	// fourth brings it to 3 < FF, releasing the LR.
	for i := 1; i <= 4; i++ {
		ctrl.Enqueue(acc(dram.ReadTag, i, 1, nil), ReadReq)
		eng.Run()
	}
	if !lrDone {
		t.Fatalf("LR still held at RRPC[0]=%d < FF", ctrl.RRPC(0))
	}
	if ctrl.Stats().OFSIssues != 1 {
		t.Fatalf("OFS issues = %d, want 1", ctrl.Stats().OFSIssues)
	}
}

// TestDCASchedulesConflictFreeLR: an LR with no row conflict drains
// immediately through OFS even with a hot RRPC.
func TestDCASchedulesConflictFreeLR(t *testing.T) {
	eng, _, ctrl := testRig(DCA)
	ctrl.Enqueue(acc(dram.ReadTag, 0, 1, nil), ReadReq)
	eng.Run()
	lrDone := false
	// Same bank, same open row: row hit, no conflict.
	ctrl.Enqueue(acc(dram.ReadTag, 0, 1, func(simtime.Time) { lrDone = true }), WritebackReq)
	eng.Run()
	if !lrDone {
		t.Fatal("conflict-free LR was held; OFS should schedule it")
	}
}

// TestCDDoesNotHoldLR: the conventional design schedules writeback tag
// reads freely — the very behaviour that causes priority inversion.
func TestCDDoesNotHoldLR(t *testing.T) {
	eng, _, ctrl := testRig(CD)
	ctrl.Enqueue(acc(dram.ReadTag, 0, 1, nil), ReadReq)
	eng.Run()
	lrDone := false
	ctrl.Enqueue(acc(dram.ReadTag, 0, 2, func(simtime.Time) { lrDone = true }), WritebackReq)
	eng.Run()
	if !lrDone {
		t.Fatal("CD held a writeback tag read; it must schedule by access type only")
	}
}

// TestDCAPriorityInversionAvoided: with an LR and a later PR both queued,
// DCA serves the PR first; CD serves the older LR first.
func TestPriorityInversion(t *testing.T) {
	order := func(d Design) []string {
		eng, _, ctrl := testRig(d)
		ctrl.busy = true // hold scheduling while both enqueue
		var got []string
		// Older LR (writeback probe) to a conflicting row.
		ctrl.Enqueue(acc(dram.ReadTag, 0, 2, func(simtime.Time) { got = append(got, "LR") }), WritebackReq)
		// Newer PR.
		ctrl.Enqueue(acc(dram.ReadTag, 1, 1, func(simtime.Time) { got = append(got, "PR") }), ReadReq)
		ctrl.busy = false
		ctrl.kick()
		eng.Run()
		return got
	}
	if got := order(DCA); len(got) == 0 || got[0] != "PR" {
		t.Errorf("DCA service order %v, want PR first", got)
	}
	if got := order(CD); len(got) != 2 || got[0] != "LR" {
		// Both banks are closed (equal row state), so FR-FCFS falls back
		// to age and the older LR wins — priority inversion.
		t.Errorf("CD service order %v, want the older LR first", got)
	}
}

// TestWriteDrainThresholds: writes accumulate until the high threshold
// forces a drain down to the low threshold.
func TestWriteDrainThresholds(t *testing.T) {
	eng := &event.Engine{}
	ch := dram.NewChannel(dram.StackedDRAM(), testGeom())
	cfg := DefaultConfig(CD)
	cfg.WriteQueueCap = 8 // high = 7, low = 4
	ctrl := NewController(eng, ch, cfg, 4)

	// Hold scheduling while filling so only the threshold logic decides.
	served := 0
	ctrl.busy = true
	for i := 0; i < 3; i++ {
		ctrl.Enqueue(acc(dram.WriteData, i%4, 0, func(simtime.Time) { served++ }), WritebackReq)
	}
	ctrl.busy = false
	ctrl.kick()
	eng.Run()
	if served != 0 {
		t.Fatalf("%d writes served below both thresholds, want 0", served)
	}
	ctrl.busy = true
	for i := 0; i < 4; i++ {
		ctrl.Enqueue(acc(dram.WriteData, i%4, 1, func(simtime.Time) { served++ }), WritebackReq)
	}
	ctrl.busy = false
	ctrl.kick()
	eng.Run()
	// Occupancy hit the high threshold (7): forced drain down to the low
	// threshold (4) services 3 writes.
	if served != 3 {
		t.Fatalf("forced flush served %d writes, want 3", served)
	}
	if ctrl.Stats().ForcedFlushes != 1 {
		t.Fatalf("forced flushes = %d, want 1", ctrl.Stats().ForcedFlushes)
	}
}

// TestPassiveWriteFlush: with no reads pending and occupancy above the
// low threshold, writes drain opportunistically.
func TestPassiveWriteFlush(t *testing.T) {
	eng := &event.Engine{}
	ch := dram.NewChannel(dram.StackedDRAM(), testGeom())
	cfg := DefaultConfig(CD)
	cfg.WriteQueueCap = 8 // low = 4
	ctrl := NewController(eng, ch, cfg, 4)
	served := 0
	for i := 0; i < 6; i++ {
		ctrl.Enqueue(acc(dram.WriteData, i%4, 0, func(simtime.Time) { served++ }), WritebackReq)
	}
	eng.Run()
	// Hmm: all six arrived while idle, so the passive path drains down to
	// the low threshold.
	if served != 2 {
		t.Fatalf("passive flush served %d, want 2 (down to low threshold)", served)
	}
}

// TestReadsPreemptPassiveFlush: reads always beat the passive write path.
func TestReadsPreemptPassiveFlush(t *testing.T) {
	eng, _, ctrl := testRig(CD)
	ctrl.busy = true
	var got []string
	ctrl.Enqueue(acc(dram.WriteData, 0, 0, func(simtime.Time) { got = append(got, "W") }), WritebackReq)
	ctrl.Enqueue(acc(dram.ReadTag, 1, 0, func(simtime.Time) { got = append(got, "R") }), ReadReq)
	ctrl.busy = false
	ctrl.kick()
	eng.Run()
	if len(got) == 0 || got[0] != "R" {
		t.Fatalf("service order %v, want the read first", got)
	}
}

// TestScheduleAllHysteresis drives read-queue occupancy across the 85 %
// threshold and verifies LRs drain until occupancy falls below 75 %.
func TestScheduleAllHysteresis(t *testing.T) {
	eng := &event.Engine{}
	ch := dram.NewChannel(dram.StackedDRAM(), testGeom())
	cfg := DefaultConfig(DCA)
	cfg.ReadQueueCap = 20 // ScheduleAll on at >17, off at <15
	ctrl := NewController(eng, ch, cfg, 4)

	// Open row 1 in bank 0 and heat its RRPC so conflicting LRs are held.
	ctrl.Enqueue(acc(dram.ReadTag, 0, 1, nil), ReadReq)
	eng.Run()

	served := 0
	for i := 0; i < 18; i++ {
		ctrl.Enqueue(acc(dram.ReadTag, 0, 2+int64(i), func(simtime.Time) { served++ }), WritebackReq)
	}
	eng.Run()
	if served == 0 {
		t.Fatal("ScheduleAll never engaged: held LRs filled the queue past 85%")
	}
	if ctrl.Stats().ScheduleAllOn == 0 {
		t.Fatal("ScheduleAll counter not incremented")
	}
	// Hysteresis: once engaged it drains below 75 % (15 of 20), i.e. at
	// least 4 LRs must have been served before disengaging.
	if served < 4 {
		t.Fatalf("only %d LRs drained; hysteresis should drain to below 75%%", served)
	}
}

// TestOverflowPreserved: entries beyond the architected capacity spill
// and are eventually serviced in order.
func TestOverflowPreserved(t *testing.T) {
	eng := &event.Engine{}
	ch := dram.NewChannel(dram.StackedDRAM(), testGeom())
	cfg := DefaultConfig(CD)
	cfg.ReadQueueCap = 4
	ctrl := NewController(eng, ch, cfg, 4)
	served := 0
	for i := 0; i < 12; i++ {
		ctrl.Enqueue(acc(dram.ReadTag, i%8, int64(i), func(simtime.Time) { served++ }), ReadReq)
	}
	eng.Run()
	if served != 12 {
		t.Fatalf("served %d of 12 enqueued reads (overflow lost work)", served)
	}
}

// TestBLISSDeprioritizesStreak: after one app hogs the channel, another
// app's newer request is served ahead of the hog's older one.
func TestBLISSDeprioritizesStreak(t *testing.T) {
	eng, _, ctrl := testRig(CD)
	// App 0 gets four consecutive services -> blacklisted.
	for i := 0; i < 4; i++ {
		a := acc(dram.ReadTag, 0, 1, nil)
		a.App = 0
		ctrl.Enqueue(a, ReadReq)
		eng.Run()
	}
	ctrl.busy = true
	var got []int
	older := acc(dram.ReadTag, 1, 1, func(simtime.Time) { got = append(got, 0) })
	older.App = 0
	ctrl.Enqueue(older, ReadReq)
	newer := acc(dram.ReadTag, 2, 1, func(simtime.Time) { got = append(got, 1) })
	newer.App = 1
	ctrl.Enqueue(newer, ReadReq)
	ctrl.busy = false
	ctrl.kick()
	eng.Run()
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("service order %v, want the non-blacklisted app first", got)
	}
}

func TestRRPCDecay(t *testing.T) {
	eng, _, ctrl := testRig(DCA)
	ctrl.Enqueue(acc(dram.ReadTag, 3, 1, nil), ReadReq)
	eng.Run()
	if ctrl.RRPC(3) != 7 {
		t.Fatalf("RRPC[3] = %d, want 7", ctrl.RRPC(3))
	}
	ctrl.Enqueue(acc(dram.ReadTag, 5, 1, nil), ReadReq)
	eng.Run()
	if ctrl.RRPC(3) != 6 || ctrl.RRPC(5) != 7 {
		t.Fatalf("RRPC decay wrong: bank3=%d bank5=%d", ctrl.RRPC(3), ctrl.RRPC(5))
	}
	// Floor at zero: issue many PRs elsewhere.
	for i := 0; i < 10; i++ {
		ctrl.Enqueue(acc(dram.ReadTag, 1, 1, nil), ReadReq)
		eng.Run()
	}
	if ctrl.RRPC(3) != 0 {
		t.Fatalf("RRPC[3] = %d after decay, want 0", ctrl.RRPC(3))
	}
}

func TestParseDesign(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Design
	}{{"cd", CD}, {"ROD", ROD}, {"dca", DCA}} {
		got, err := ParseDesign(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseDesign(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseDesign("nope"); err == nil {
		t.Error("unknown design accepted")
	}
}
