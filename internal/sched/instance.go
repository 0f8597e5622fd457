package sched

import "dcasim/internal/simtime"

// Instance is one channel's live scheduling state: the per-pick phase
// restrictions and the service feedback a policy consumes. Each
// controller builds its own instance and never shares it.
//
// The controller resolves each scheduling slot over the shared indexed
// (bank, lane) queues in *phases*: BeginPick returns how many restriction
// phases this pick has, and the controller scans the queues once per
// phase in priority order, returning the first phase's best candidate
// (row hits first, then bus direction, then age — the FR-FCFS tail of
// the key). The final phase (phases-1) is always an unrestricted scan
// performed by the controller itself, so PhaseMask/PhaseAllows are only
// consulted for phases 0..phases-2: a policy's restrictions narrow the
// earlier phases, and BeginPick == 1 means "no restriction at all".
//
// Contract (checked by the conformance tests in internal/core):
//
//   - BeginPick must return >= 1. It is called with the current simulated
//     time once per queue scan — up to a few times per scheduling slot,
//     always with the same now — so any time-based state transition made
//     there must be idempotent at a fixed now.
//   - PhaseMask(p) reports phase p's allowed applications as a bitmask
//     (bit a set = application a is a candidate). ok=false means the
//     restriction is not mask-representable and the controller falls back
//     to per-entry PhaseAllows calls. In mask mode applications outside
//     bits 0..63 are always treated as candidates; a policy that must
//     deprioritise them has to return ok=false.
//   - PhaseAllows(p, app) must agree with a returned mask for apps 0..63
//     and must report true for any out-of-mask-range app, in every phase
//     where ok=true. PhaseMask and PhaseAllows are pure reads: policy
//     state may change only inside BeginPick and OnServed (the reference
//     oracle calls them with different granularity than the controller,
//     and impurity diverges the two schedules).
//   - RowHitFirst reports whether the policy wants the row-hit /
//     direction / age key at all. When false the controller serves pure
//     age order (FCFS) and never calls BeginPick/PhaseMask/PhaseAllows.
//     The result must be constant for the life of the instance; the
//     controller caches it at construction.
//   - OnServed observes every serviced access (its application id), for
//     feedback policies like BLISS blacklisting. It is called for every
//     policy, in issue order.
type Instance interface {
	RowHitFirst() bool
	BeginPick(now simtime.Time) int
	PhaseMask(phase int) (mask uint64, ok bool)
	PhaseAllows(phase, app int) bool
	OnServed(now simtime.Time, app int)
}
