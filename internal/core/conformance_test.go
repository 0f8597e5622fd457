package core

// The conformance tests every scheduling policy passes: random traffic
// replayed through the reference linear-scan controller
// (refcontroller_test.go) and the production indexed controller side by
// side, requiring bit-identical schedules.

import (
	"fmt"
	"testing"

	"dcasim/internal/addrmap"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/rng"
	"dcasim/internal/simtime"
)

// TestPolicyConformance runs the conformance checks over each of the
// paper's three policies.
func TestPolicyConformance(t *testing.T) {
	for _, alg := range []Algorithm{AlgBLISS, AlgFCFS, AlgFRFCFS} {
		t.Run(string(alg), func(t *testing.T) {
			if err := checkConformance(alg, nil); err != nil {
				t.Fatalf("policy %s fails conformance: %v", alg, err)
			}
		})
	}
}

// checkConformance replays the algorithm's schedule against the
// reference oracle, whose key breakKey corrupts when non-nil, across
// every design and eight traffic seeds. It returns the first
// divergence found, nil when every schedule matches.
func checkConformance(alg Algorithm, breakKey func(key *[4]int64)) error {
	for _, design := range []Design{CD, ROD, DCA} {
		for seed := uint64(1); seed <= 8; seed++ {
			if err := diffRun(alg, breakKey, design, seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// issueRecord is one scheduling decision: which entry (by enqueue seq)
// was issued, when, and through which path.
type issueRecord struct {
	seq      uint64
	now      simtime.Time
	fromRead bool
	viaOFS   bool
}

func (r issueRecord) String() string {
	return fmt.Sprintf("{seq %d @%v read=%v ofs=%v}", r.seq, r.now, r.fromRead, r.viaOFS)
}

type diffOp struct {
	acc dram.Access
	req RequestType
}

// makeTraffic is a reproducible random access stream. Both controllers
// must receive identical streams, so it is generated once per seed. The
// stream spreads over four apps, few enough that BLISS streaks form.
func makeTraffic(seed uint64, n int) []diffOp {
	r := rng.New(seed)
	kinds := []dram.Kind{dram.ReadTag, dram.ReadData, dram.WriteTag, dram.WriteData}
	reqs := []RequestType{ReadReq, WritebackReq, RefillReq}
	ops := make([]diffOp, n)
	for i := range ops {
		app := r.Intn(4)
		ops[i] = diffOp{
			acc: dram.Access{
				Kind:  kinds[r.Intn(len(kinds))],
				Loc:   addrmap.Loc{Bank: int32(r.Intn(8)), Row: int64(r.Intn(16)), Col: int32(r.Intn(64))},
				Bytes: 64,
				App:   app,
			},
			req: reqs[r.Intn(len(reqs))],
		}
	}
	return ops
}

// diffRun replays one randomized enqueue/complete sequence through the
// reference linear-scan controller, its key corrupted by breakKey when
// non-nil, and the production indexed scheduler, and requires identical
// (time, seq, path) issue sequences, RRPC state, residual queue depths,
// and stats. Small queue capacities force the spill, drain,
// ScheduleAll, and OFS paths; the tight row space forces hits,
// conflicts, and BLISS streaks.
func diffRun(alg Algorithm, breakKey func(key *[4]int64), design Design, seed uint64) error {
	cfg := DefaultConfig(design)
	cfg.Algorithm = alg
	cfg.ReadQueueCap = 6
	cfg.WriteQueueCap = 6

	ops := makeTraffic(seed, 400)

	var gotNew, gotRef []issueRecord

	engN := &event.Engine{}
	chN := dram.NewChannel(dram.StackedDRAM(), testGeom())
	ctrlN := NewController(engN, chN, cfg, 4)
	ctrlN.onIssue = func(e *Entry, now simtime.Time, fromRead, viaOFS bool) {
		gotNew = append(gotNew, issueRecord{e.seq, now, fromRead, viaOFS})
	}

	engR := &event.Engine{}
	chR := dram.NewChannel(dram.StackedDRAM(), testGeom())
	ctrlR := newRefController(engR, chR, cfg)
	ctrlR.breakKey = breakKey
	ctrlR.onIssue = func(e *refEntry, now simtime.Time, fromRead, viaOFS bool) {
		gotRef = append(gotRef, issueRecord{e.seq, now, fromRead, viaOFS})
	}

	for i, op := range ops {
		ctrlN.Enqueue(op.acc, op.req)
		ctrlR.Enqueue(op.acc, op.req)
		// Let both engines make progress between bursts so completions
		// interleave with arrivals.
		if i%8 == 7 {
			engN.Run()
			engR.Run()
		}
	}
	engN.Run()
	engR.Run()

	ctx := fmt.Sprintf("%v/%s seed %d", design, alg, seed)
	if len(gotNew) != len(gotRef) {
		return fmt.Errorf("conformance: %s: issued %d vs reference %d", ctx, len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			return fmt.Errorf("conformance: %s: pick %d diverged: indexed %v, reference %v", ctx, i, gotNew[i], gotRef[i])
		}
	}
	for b := 0; b < chN.Banks(); b++ {
		if got, want := ctrlN.rrpcNow(b), ctrlR.rrpc[b]; got != want {
			return fmt.Errorf("conformance: %s: RRPC[%d] = %d, reference %d", ctx, b, got, want)
		}
	}
	nr, nw := ctrlN.rq.count, ctrlN.wq.count
	if nr != len(ctrlR.readQ) || nw != len(ctrlR.writeQ) {
		return fmt.Errorf("conformance: %s: residual depths (%d,%d) vs reference (%d,%d)", ctx, nr, nw, len(ctrlR.readQ), len(ctrlR.writeQ))
	}
	if ctrlN.Stats() != ctrlR.stats {
		return fmt.Errorf("conformance: %s: stats diverged:\nindexed   %+v\nreference %+v", ctx, ctrlN.Stats(), ctrlR.stats)
	}
	return nil
}
