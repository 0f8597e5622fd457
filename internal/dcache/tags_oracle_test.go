package dcache

import (
	"testing"

	"dcasim/internal/rng"
)

// oracleTags is the reference the tag store is tested against: the
// plain layout it replaced, one tag, one dirty flag and one LRU stamp
// per way, with a global clock. A victim is the first invalid way, else
// the way with the oldest stamp. Its journal saves a way's whole state.
type oracleTags struct {
	geom  Geometry
	tag   []int64 // emptyTag marks an invalid way
	dirty []bool
	lru   []uint32
	tick  uint32

	journaling bool
	journal    []oracleUndo
	savedTick  uint32
}

type oracleUndo struct {
	i     int64
	tag   int64
	lru   uint32
	dirty bool
}

// emptyTag marks an invalid way. Real tags are block addresses divided by
// the set count and therefore non-negative.
const emptyTag = int64(-1)

func newOracleTags(g Geometry) *oracleTags {
	n := g.Sets * int64(g.Ways)
	t := &oracleTags{geom: g, tag: make([]int64, n), dirty: make([]bool, n), lru: make([]uint32, n)}
	for i := range t.tag {
		t.tag[i] = emptyTag
	}
	return t
}

func (t *oracleTags) idx(set int64, way int) int64 { return set*int64(t.geom.Ways) + int64(way) }

func (t *oracleTags) lookup(blockAddr int64) (set int64, way int) {
	set = blockAddr % t.geom.Sets
	want := blockAddr / t.geom.Sets
	for w := 0; w < t.geom.Ways; w++ {
		if t.tag[t.idx(set, w)] == want {
			return set, w
		}
	}
	return set, -1
}

func (t *oracleTags) lookupOrVictim(blockAddr int64) (set int64, way, victim int) {
	set, way = t.lookup(blockAddr)
	if way >= 0 {
		return set, way, -1
	}
	return set, -1, t.victim(set)
}

// touch refreshes a way's stamp. A 1-way set has no replacement choice,
// so it neither stamps nor journals.
func (t *oracleTags) touch(set int64, way int) {
	if t.geom.Ways == 1 {
		return
	}
	i := t.idx(set, way)
	t.save(i)
	t.tick++
	t.lru[i] = t.tick
}

func (t *oracleTags) setDirty(set int64, way int) {
	i := t.idx(set, way)
	t.save(i)
	t.dirty[i] = true
}

func (t *oracleTags) victim(set int64) int {
	victim, oldest := 0, uint32(0)
	for w := 0; w < t.geom.Ways; w++ {
		i := t.idx(set, w)
		if t.tag[i] == emptyTag {
			return w
		}
		if w == 0 || t.lru[i] < oldest {
			victim, oldest = w, t.lru[i]
		}
	}
	return victim
}

func (t *oracleTags) victimInfo(set int64, way int) (blockAddr int64, valid, dirty bool) {
	i := t.idx(set, way)
	if t.tag[i] == emptyTag {
		return 0, false, false
	}
	return t.tag[i]*t.geom.Sets + set, true, t.dirty[i]
}

func (t *oracleTags) install(blockAddr int64, set int64, way int, dirty bool) {
	i := t.idx(set, way)
	t.save(i)
	t.tag[i] = blockAddr / t.geom.Sets
	t.dirty[i] = dirty
	t.tick++
	t.lru[i] = t.tick
}

func (t *oracleTags) checkpoint() {
	t.journaling = true
	t.journal = t.journal[:0]
	t.savedTick = t.tick
}

// save journals way i before a write, dropping the journal once it
// holds half as many entries as the store has ways.
func (t *oracleTags) save(i int64) {
	if !t.journaling {
		return
	}
	if len(t.journal) >= len(t.tag)/2 {
		t.journaling = false
		t.journal = nil
		return
	}
	t.journal = append(t.journal, oracleUndo{i: i, tag: t.tag[i], lru: t.lru[i], dirty: t.dirty[i]})
}

func (t *oracleTags) rollback() bool {
	if !t.journaling {
		return false
	}
	for k := len(t.journal) - 1; k >= 0; k-- {
		u := t.journal[k]
		t.tag[u.i], t.lru[u.i], t.dirty[u.i] = u.tag, u.lru, u.dirty
	}
	t.tick = t.savedTick
	t.journal = t.journal[:0]
	t.journaling = false
	return true
}

// tinyGeometry is org's geometry over four 4 KB DRAM rows: 16 sets of
// 15 ways set-associative, 224 sets direct-mapped. Short programs fill
// its sets, evict, and outgrow a journal (120 and 112 entries).
func tinyGeometry(tb testing.TB, org Org) Geometry {
	tb.Helper()
	g, err := NewGeometry(org, 4*4096, paperDRAM())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// journalOutcomes counts driveTags' rollbacks after a checkpoint: those
// that undid the journal and those that found it dropped.
type journalOutcomes struct{ undone, dropped int }

// driveTags runs program on a tag store and on the oracle, both of org,
// and fails at the first result that differs; at the end every way's
// victimInfo and every set's victim must agree too. Each op is three
// bytes: an opcode and two operands, which name a block (set a, alias
// b%40, so a set sees more blocks than it has ways) or a way. touch and
// setDirty go only to a way that holds a block, as the DRAM cache calls
// them only on hits.
func driveTags(t *testing.T, org Org, program []byte) journalOutcomes {
	t.Helper()
	g := tinyGeometry(t, org)
	ts, ref := newTagStore(g, nil), newOracleTags(g)
	block := func(a, b byte) int64 { return int64(a)%g.Sets + int64(b%40)*g.Sets }
	at := func(a, b byte) (int64, int) { return int64(a) % g.Sets, int(b) % g.Ways }
	var out journalOutcomes
	checkpointed := false
	for pc := 0; pc+2 < len(program); pc += 3 {
		op, a, b := program[pc], program[pc+1], program[pc+2]
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("%v op %d (%d %d %d) %s: got %v, want %v", org, pc/3, op, a, b, what, got, want)
		}
		switch op % 9 {
		case 0:
			s1, w1 := ts.lookup(block(a, b))
			s2, w2 := ref.lookup(block(a, b))
			if s1 != s2 || w1 != w2 {
				fail("lookup", [2]int64{s1, int64(w1)}, [2]int64{s2, int64(w2)})
			}
		case 1: // a warm call, a write when op's top bit is set
			addr, write := block(a, b), op&0x80 != 0
			s1 := g.SetOf(addr)
			w1, v1 := ts.lookupOrVictim(addr, s1)
			s2, w2, v2 := ref.lookupOrVictim(addr)
			if s1 != s2 || w1 != w2 || v1 != v2 {
				fail("lookupOrVictim", [3]int64{s1, int64(w1), int64(v1)}, [3]int64{s2, int64(w2), int64(v2)})
			}
			switch {
			case w1 < 0:
				ts.install(addr, s1, v1, write)
				ref.install(addr, s2, v2, write)
			case write:
				ts.setDirty(s1, w1)
				ref.setDirty(s2, w2)
				fallthrough
			default:
				ts.touch(s1, w1)
				ref.touch(s2, w2)
			}
		case 2, 3:
			set, way := at(a, b)
			if _, valid, _ := ref.victimInfo(set, way); !valid {
				break
			}
			if op%9 == 2 {
				ts.touch(set, way)
				ref.touch(set, way)
			} else {
				ts.setDirty(set, way)
				ref.setDirty(set, way)
			}
		case 4:
			addr, way, dirty := block(a, b), int(op/9)%g.Ways, op&0x80 != 0
			ts.install(addr, g.SetOf(addr), way, dirty)
			ref.install(addr, g.SetOf(addr), way, dirty)
		case 5:
			set, _ := at(a, b)
			if got, want := ts.victim(set), ref.victim(set); got != want {
				fail("victim", got, want)
			}
		case 6:
			set, way := at(a, b)
			b1, ok1, d1 := ts.victimInfo(set, way)
			b2, ok2, d2 := ref.victimInfo(set, way)
			if b1 != b2 || ok1 != ok2 || d1 != d2 {
				fail("victimInfo", []any{b1, ok1, d1}, []any{b2, ok2, d2})
			}
		case 7:
			ts.checkpoint()
			ref.checkpoint()
			checkpointed = true
		case 8:
			got, want := ts.rollback(), ref.rollback()
			if got != want {
				fail("rollback", got, want)
			}
			switch {
			case checkpointed && got:
				out.undone++
			case checkpointed:
				out.dropped++
			}
			checkpointed = false
		}
	}
	for set := int64(0); set < g.Sets; set++ {
		for way := 0; way < g.Ways; way++ {
			b1, ok1, d1 := ts.victimInfo(set, way)
			b2, ok2, d2 := ref.victimInfo(set, way)
			if b1 != b2 || ok1 != ok2 || d1 != d2 {
				t.Fatalf("%v: final victimInfo(%d, %d) = %v %v %v, want %v %v %v", org, set, way, b1, ok1, d1, b2, ok2, d2)
			}
		}
		if got, want := ts.victim(set), ref.victim(set); got != want {
			t.Fatalf("%v: final victim(%d) = %d, want %d", org, set, got, want)
		}
	}
	return out
}

// TestTagStoreMatchesOracle: random programs on both organizations, with
// checkpoints and rollbacks rare enough that some journals outgrow the
// store, return what the oracle returns at every step.
func TestTagStoreMatchesOracle(t *testing.T) {
	for _, org := range []Org{SetAssoc, DirectMapped} {
		var total journalOutcomes
		for seed := uint64(1); seed <= 8; seed++ {
			r := rng.New(seed)
			program := make([]byte, 3*20_000)
			for i := range program {
				program[i] = byte(r.Uint64())
			}
			// Most checkpoints and rollbacks become warm calls, so a
			// journal lives for about 300 ops.
			for pc := 0; pc < len(program); pc += 3 {
				if op := program[pc] % 9; (op == 7 || op == 8) && r.Intn(12) != 0 {
					program[pc] += 1 - op
				}
			}
			out := driveTags(t, org, program)
			total.undone += out.undone
			total.dropped += out.dropped
		}
		if total.undone == 0 || total.dropped == 0 {
			t.Fatalf("%v: %d rollbacks undid a journal and %d found it dropped; want both", org, total.undone, total.dropped)
		}
	}
}

// FuzzTagStore runs driveTags' programs on both organizations. The
// checked-in corpus adds an evicting set, a journal that outgrows the
// store, a short journal, and installs at explicit ways.
func FuzzTagStore(f *testing.F) {
	f.Add([]byte{1, 3, 0, 136, 3, 16, 1, 3, 32, 0, 3, 16, 5, 3, 0, 6, 3, 1})
	f.Add([]byte{7, 0, 0, 136, 2, 5, 4, 2, 7, 3, 2, 7, 2, 2, 7, 8, 0, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		for _, org := range []Org{SetAssoc, DirectMapped} {
			driveTags(t, org, program)
		}
	})
}
