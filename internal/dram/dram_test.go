package dram

import (
	"reflect"
	"strings"
	"testing"

	"dcasim/internal/addrmap"
	"dcasim/internal/simtime"
)

func geom() addrmap.Geometry {
	return addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64}
}

func read(bank int, row int64, col int) *Access {
	return &Access{Kind: ReadData, Loc: addrmap.Loc{Bank: int32(bank), Row: row, Col: int32(col)}, Bytes: 64}
}

func write(bank int, row int64, col int) *Access {
	return &Access{Kind: WriteData, Loc: addrmap.Loc{Bank: int32(bank), Row: row, Col: int32(col)}, Bytes: 64}
}

func TestStackedDRAMTimings(t *testing.T) {
	tm := StackedDRAM()
	if tm.TRCD != 8*simtime.Nanosecond || tm.TRAS != 30*simtime.Nanosecond {
		t.Fatalf("Table II timings wrong: %+v", tm)
	}
	if tm.TWTR != 5*simtime.Nanosecond || tm.TRTW != simtime.FromNS(1.67) {
		t.Fatalf("turnaround timings wrong: %+v", tm)
	}
}

func TestBurstTime(t *testing.T) {
	tm := StackedDRAM()
	if tm.BurstTime(64) != tm.TBurst {
		t.Fatalf("64B burst = %v, want %v", tm.BurstTime(64), tm.TBurst)
	}
	tad := tm.BurstTime(72)
	if tad <= tm.TBurst || tad >= 2*tm.TBurst {
		t.Fatalf("72B TAD burst %v should be between 1x and 2x %v", tad, tm.TBurst)
	}
	if tm.BurstTime(128) != 2*tm.TBurst {
		t.Fatalf("128B burst = %v, want %v", tm.BurstTime(128), 2*tm.TBurst)
	}
}

func TestClosedRowLatency(t *testing.T) {
	tm := StackedDRAM()
	ch := NewChannel(tm, geom())
	if got := ch.Peek(addrmap.Loc{Bank: 0, Row: 5}); got != RowClosed {
		t.Fatalf("fresh bank state = %v, want closed", got)
	}
	end := ch.Issue(read(0, 5, 0), 0)
	want := tm.TRCD + tm.TCAS + tm.TBurst
	if end != want {
		t.Fatalf("closed-row read completes at %v, want %v", end, want)
	}
	if ch.Peek(addrmap.Loc{Bank: 0, Row: 5}) != RowHit {
		t.Fatal("row should be open after access (open-page policy)")
	}
}

func TestRowHitLatency(t *testing.T) {
	tm := StackedDRAM()
	ch := NewChannel(tm, geom())
	end := ch.Issue(read(0, 5, 0), 0)
	end2 := ch.Issue(read(0, 5, 1), end)
	want := end + tm.TCAS + tm.TBurst
	if end2 != want {
		t.Fatalf("row-hit read completes at %v, want %v", end2, want)
	}
}

func TestRowConflictLatency(t *testing.T) {
	tm := StackedDRAM()
	ch := NewChannel(tm, geom())
	end := ch.Issue(read(0, 5, 0), 0)
	if ch.Peek(addrmap.Loc{Bank: 0, Row: 6}) != RowConflict {
		t.Fatal("different row in open bank should conflict")
	}
	// Conflict: must respect tRAS from the first activate (at t=0),
	// then tRP + tRCD + tCAS + burst.
	end2 := ch.Issue(read(0, 6, 0), end)
	actOfFirst := simtime.Time(0)
	preOK := actOfFirst + tm.TRAS
	pre := simtime.Max(end, preOK)
	want := pre + tm.TRP + tm.TRCD + tm.TCAS + tm.TBurst
	if end2 != want {
		t.Fatalf("conflict read completes at %v, want %v", end2, want)
	}
	if got := ch.Stats().ReadRowConf; got != 1 {
		t.Fatalf("conflict count = %d, want 1", got)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	tm := StackedDRAM()
	ch := NewChannel(tm, geom())
	wEnd := ch.Issue(write(0, 1, 0), 0)
	// Read to an open row in another bank: CAS must wait tWTR after the
	// write burst end.
	ch2 := ch.Issue(read(1, 1, 0), wEnd)
	// Bank 1 closed: activate may overlap nothing (serial model): cmd
	// starts at wEnd, +tRCD, then CAS >= wEnd + tWTR.
	cas := simtime.Max(wEnd+tm.TRCD, wEnd+tm.TWTR)
	want := cas + tm.TCAS + tm.TBurst
	if ch2 != want {
		t.Fatalf("read after write completes at %v, want %v", ch2, want)
	}
	if ch.Stats().Turnarounds != 1 {
		t.Fatalf("turnarounds = %d, want 1", ch.Stats().Turnarounds)
	}
}

func TestReadToWriteTurnaround(t *testing.T) {
	tm := StackedDRAM()
	ch := NewChannel(tm, geom())
	rEnd := ch.Issue(read(0, 1, 0), 0)
	end := ch.Issue(write(0, 1, 1), rEnd) // row hit write
	cas := rEnd + tm.TRTW
	want := cas + tm.TCAS + tm.TBurst
	if end != want {
		t.Fatalf("write after read completes at %v, want %v", end, want)
	}
}

func TestNoTurnaroundSameDirection(t *testing.T) {
	ch := NewChannel(StackedDRAM(), geom())
	end := ch.Issue(read(0, 1, 0), 0)
	end = ch.Issue(read(0, 1, 1), end)
	end = ch.Issue(read(0, 1, 2), end)
	if ch.Stats().Turnarounds != 0 {
		t.Fatalf("same-direction accesses recorded %d turnarounds", ch.Stats().Turnarounds)
	}
	if ch.Stats().Reads != 3 || ch.Stats().ReadRowHit != 2 {
		t.Fatalf("stats wrong: %+v", ch.Stats())
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	tm := StackedDRAM()
	ch := NewChannel(tm, geom())
	wEnd := ch.Issue(write(0, 1, 0), 0)
	// Conflicting read: precharge must wait tWR after the write burst.
	end := ch.Issue(read(0, 2, 0), wEnd)
	pre := wEnd + tm.TWR
	want := pre + tm.TRP + tm.TRCD
	// CAS also >= wEnd + tWTR, but the row preparation dominates here.
	cas := simtime.Max(want, wEnd+tm.TWTR)
	want = cas + tm.TCAS + tm.TBurst
	if end != want {
		t.Fatalf("conflicting read after write completes at %v, want %v", end, want)
	}
}

func TestIssueBeforeBusFreePanics(t *testing.T) {
	ch := NewChannel(StackedDRAM(), geom())
	end := ch.Issue(read(0, 1, 0), 0)
	defer func() {
		if recover() == nil {
			t.Error("Issue before bus free did not panic")
		}
	}()
	ch.Issue(read(0, 1, 1), end-1)
}

func TestBanksIndependentRows(t *testing.T) {
	ch := NewChannel(StackedDRAM(), geom())
	end := ch.Issue(read(0, 1, 0), 0)
	end = ch.Issue(read(1, 2, 0), end)
	_ = ch.Issue(read(0, 1, 1), end) // still a hit in bank 0
	s := ch.Stats()
	if s.ReadRowHit != 1 || s.ReadRowMiss != 2 || s.ReadRowConf != 0 {
		t.Fatalf("bank independence broken: %+v", s)
	}
}

func TestStatsAddAndRates(t *testing.T) {
	var a, b Stats
	a.Reads, a.ReadRowHit, a.Accesses, a.Turnarounds = 10, 6, 12, 3
	b.Reads, b.ReadRowHit, b.Accesses, b.Turnarounds = 10, 2, 12, 1
	a.Add(b)
	if a.Reads != 20 || a.ReadRowHit != 8 {
		t.Fatalf("Add broken: %+v", a)
	}
	if got := a.ReadRowHitRate(); got != 0.4 {
		t.Fatalf("hit rate %v, want 0.4", got)
	}
	if got := a.AccessesPerTurnaround(); got != 6 {
		t.Fatalf("accesses per turnaround %v, want 6", got)
	}
	var empty Stats
	if empty.ReadRowHitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
	if empty.AccessesPerTurnaround() != 0 {
		t.Fatal("empty stats turnaround metric should be 0")
	}
}

func TestKindClassification(t *testing.T) {
	if ReadTag.IsWrite() || ReadData.IsWrite() || ReadTAD.IsWrite() {
		t.Error("read kinds classified as writes")
	}
	if !WriteTag.IsWrite() || !WriteData.IsWrite() || !WriteTAD.IsWrite() {
		t.Error("write kinds not classified as writes")
	}
	if !ReadTag.IsTag() || !WriteTag.IsTag() || !ReadTAD.IsTag() || !WriteTAD.IsTag() {
		t.Error("tag kinds not classified as tag accesses")
	}
	if ReadData.IsTag() || WriteData.IsTag() {
		t.Error("data kinds classified as tag accesses")
	}
}

// TestRowChangeNotification: the listener fires exactly on activates
// (closed-row and conflict accesses), with the bank's dense index and the
// newly opened row; row hits are silent.
func TestRowChangeNotification(t *testing.T) {
	ch := NewChannel(StackedDRAM(), geom())
	type change struct {
		gb  int
		row int64
	}
	var got []change
	ch.SetRowListener(func(gb int, row int64) { got = append(got, change{gb, row}) })

	end := ch.Issue(read(3, 5, 0), 0)  // closed -> activate row 5
	end = ch.Issue(read(3, 5, 1), end) // row hit -> silent
	end = ch.Issue(read(3, 9, 0), end) // conflict -> activate row 9
	_ = ch.Issue(read(7, 2, 0), end)   // other bank activate
	want := []change{{3, 5}, {3, 9}, {7, 2}}
	if len(got) != len(want) {
		t.Fatalf("listener fired %d times, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notification %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPeekBankMatchesPeek: the pre-decoded fast path must agree with the
// address-decoding Peek in every row-buffer state.
func TestPeekBankMatchesPeek(t *testing.T) {
	ch := NewChannel(StackedDRAM(), geom())
	_ = ch.Issue(read(2, 4, 0), 0)
	locs := []addrmap.Loc{
		{Bank: 2, Row: 4}, // hit
		{Bank: 2, Row: 6}, // conflict
		{Bank: 5, Row: 1}, // closed
	}
	for _, l := range locs {
		if got, want := ch.PeekBank(ch.GlobalBank(l), l.Row), ch.Peek(l); got != want {
			t.Fatalf("PeekBank(%+v) = %v, Peek = %v", l, got, want)
		}
	}
}

// TestIssueAllocatesNothing pins BenchmarkChannelIssue's loop at zero
// allocations: issuing a command is on every access's path.
func TestIssueAllocatesNothing(t *testing.T) {
	ch := NewChannel(StackedDRAM(), geom())
	accs := make([]*Access, 64)
	for i := range accs {
		accs[i] = read(i%16, int64(i/16), i%64)
	}
	now := ch.BusFreeAt()
	n := testing.AllocsPerRun(100, func() {
		for _, a := range accs {
			now = ch.Issue(a, now)
		}
	})
	if n != 0 {
		t.Fatalf("Issue allocates %v times per %d calls, want 0", n, len(accs))
	}
}

// TestTimingValidate: every Timing field rejects a negative value with
// an error naming it, TBurst rejects zero, and the other fields accept
// zero.
func TestTimingValidate(t *testing.T) {
	if err := StackedDRAM().Validate(); err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Timing{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		for _, v := range []simtime.Time{-1, 0} {
			tm := StackedDRAM()
			reflect.ValueOf(&tm).Elem().Field(i).Set(reflect.ValueOf(v))
			err := tm.Validate()
			switch {
			case (v < 0 || name == "TBurst") && (err == nil || !strings.Contains(err.Error(), name)):
				t.Errorf("%s = %v: Validate = %v, want an error naming it", name, v, err)
			case v == 0 && name != "TBurst" && err != nil:
				t.Errorf("%s = 0: %v", name, err)
			}
		}
	}
}
