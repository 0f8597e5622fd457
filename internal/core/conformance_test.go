package core

// The conformance tests every scheduling policy passes: direct checks of
// the sched.Instance contract (phase counts, mask/PhaseAllows agreement,
// BeginPick idempotence, RowHitFirst stability), then random traffic
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
	"dcasim/internal/sched"
	"dcasim/internal/simtime"
)

// TestPolicyConformance runs the conformance checks over each of the
// paper's three policies.
func TestPolicyConformance(t *testing.T) {
	for _, alg := range []Algorithm{AlgBLISS, AlgFCFS, AlgFRFCFS} {
		t.Run(string(alg), func(t *testing.T) {
			if err := checkConformance(string(alg), alg.newInstance); err != nil {
				t.Fatalf("policy %s fails conformance: %v", alg, err)
			}
		})
	}
}

// checkConformance verifies the policy newInst builds instances of:
// first the Instance contract on fresh instances (normal and >64-app
// overflow shapes), then differential schedule equality against the
// reference oracle across every design, eight traffic seeds, and the
// >64-application fallback. It returns the first violation found, nil
// for a conformant policy.
func checkConformance(name string, newInst func(apps int) sched.Instance) error {
	for _, apps := range []int{4, 80} {
		if err := checkContract(newInst(apps), apps); err != nil {
			return err
		}
	}
	for _, design := range []Design{CD, ROD, DCA} {
		for seed := uint64(1); seed <= 8; seed++ {
			if err := diffRun(name, newInst, design, seed, 4); err != nil {
				return err
			}
		}
	}
	// The >64-application shapes exercise the per-entry PhaseAllows
	// fallback (mask mode is unrepresentable there for BLISS).
	for seed := uint64(1); seed <= 4; seed++ {
		if err := diffRun(name, newInst, DCA, seed, 80); err != nil {
			return err
		}
		if err := diffRun(name, newInst, CD, seed, 80); err != nil {
			return err
		}
	}
	return nil
}

// checkContract probes a fresh instance directly for the documented
// sched.Instance invariants. At each probe time it first serves
// application 0 twice BLISS's threshold in a row, so a feedback policy
// has something to restrict when its phases are probed.
func checkContract(inst sched.Instance, apps int) error {
	if inst == nil {
		return fmt.Errorf("conformance: New(%d) returned a nil Instance", apps)
	}
	rhf := inst.RowHitFirst()
	for _, now := range []simtime.Time{0, simtime.Millisecond, 5 * simtime.Millisecond} {
		for i := 0; i < 2*sched.DefaultThreshold; i++ {
			inst.OnServed(now, 0)
		}
		phases := inst.BeginPick(now)
		if phases < 1 {
			return fmt.Errorf("conformance: BeginPick(%v) returned %d phases; the contract requires >= 1", now, phases)
		}
		if again := inst.BeginPick(now); again != phases {
			return fmt.Errorf("conformance: BeginPick(%v) is not idempotent at a fixed now: %d then %d phases", now, phases, again)
		}
		for p := 0; p < phases-1; p++ {
			mask, ok := inst.PhaseMask(p)
			if mask2, ok2 := inst.PhaseMask(p); mask2 != mask || ok2 != ok {
				return fmt.Errorf("conformance: PhaseMask(%d) at now=%v is impure: (%#x,%v) then (%#x,%v)", p, now, mask, ok, mask2, ok2)
			}
			if !ok {
				continue
			}
			// Mask mode: PhaseAllows must agree bit for bit over the mask
			// range and must admit everything outside it (the controller
			// admits out-of-range apps unconditionally in mask mode).
			for app := 0; app < 64; app++ {
				if got, want := inst.PhaseAllows(p, app), mask>>uint(app)&1 != 0; got != want {
					return fmt.Errorf("conformance: phase %d at now=%v: PhaseAllows(app %d)=%v disagrees with mask bit %v", p, now, app, got, want)
				}
			}
			for _, app := range []int{64, 64 + apps, -1} {
				if !inst.PhaseAllows(p, app) {
					return fmt.Errorf("conformance: phase %d at now=%v: PhaseAllows(app %d)=false, but mask mode admits apps outside bits 0..63 unconditionally", p, now, app)
				}
			}
		}
		inst.OnServed(now, apps-1)
		if inst.RowHitFirst() != rhf {
			return fmt.Errorf("conformance: RowHitFirst changed from %v at now=%v; it must be constant for the instance's life", rhf, now)
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
// stream concentrates on four apps so feedback policies (BLISS streaks)
// actually discriminate, but with many apps also sprinkles high ids to
// exercise the >64-app fallback paths.
func makeTraffic(seed uint64, n, apps int) []diffOp {
	r := rng.New(seed)
	kinds := []dram.Kind{dram.ReadTag, dram.ReadData, dram.WriteTag, dram.WriteData}
	reqs := []RequestType{ReadReq, WritebackReq, RefillReq}
	ops := make([]diffOp, n)
	for i := range ops {
		app := r.Intn(4)
		if apps > 4 && r.Intn(4) == 0 {
			app = apps - 1 - r.Intn(4)
		}
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
// reference linear-scan controller and the production indexed scheduler,
// each with its own instance from newInst, and requires identical
// (time, seq, path) issue sequences, RRPC state, residual queue depths,
// and stats. Small queue capacities force the spill, drain,
// ScheduleAll, and OFS paths; the tight row space forces hits,
// conflicts, and feedback-policy streaks.
func diffRun(name string, newInst func(apps int) sched.Instance, design Design, seed uint64, apps int) error {
	cfg := DefaultConfig(design)
	cfg.ReadQueueCap = 6
	cfg.WriteQueueCap = 6

	ops := makeTraffic(seed, 400, apps)

	var gotNew, gotRef []issueRecord

	engN := &event.Engine{}
	chN := dram.NewChannel(dram.StackedDRAM(), testGeom())
	ctrlN := newController(engN, chN, cfg, apps, newInst(apps))
	ctrlN.onIssue = func(e *Entry, now simtime.Time, fromRead, viaOFS bool) {
		gotNew = append(gotNew, issueRecord{e.Seq(), now, fromRead, viaOFS})
	}

	engR := &event.Engine{}
	chR := dram.NewChannel(dram.StackedDRAM(), testGeom())
	ctrlR := newRefController(engR, chR, cfg, newInst(apps))
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

	ctx := fmt.Sprintf("%v/%s seed %d apps %d", design, name, seed, apps)
	if len(gotNew) != len(gotRef) {
		return fmt.Errorf("conformance: %s: issued %d vs reference %d", ctx, len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			return fmt.Errorf("conformance: %s: pick %d diverged: indexed %v, reference %v", ctx, i, gotNew[i], gotRef[i])
		}
	}
	for b := 0; b < chN.Banks(); b++ {
		if got, want := ctrlN.RRPC(b), ctrlR.rrpc[b]; got != want {
			return fmt.Errorf("conformance: %s: RRPC[%d] = %d, reference %d", ctx, b, got, want)
		}
	}
	nr, nw := ctrlN.QueueDepths()
	if nr != len(ctrlR.readQ) || nw != len(ctrlR.writeQ) {
		return fmt.Errorf("conformance: %s: residual depths (%d,%d) vs reference (%d,%d)", ctx, nr, nw, len(ctrlR.readQ), len(ctrlR.writeQ))
	}
	if ctrlN.Stats() != ctrlR.stats {
		return fmt.Errorf("conformance: %s: stats diverged:\nindexed   %+v\nreference %+v", ctx, ctrlN.Stats(), ctrlR.stats)
	}
	return nil
}
