package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dcasim/internal/simtime"
)

// Params carries a policy's resolved tunable parameters, keyed by the
// names declared in the registration's ParamSpecs. A Params produced by
// Registration.ResolveParams holds a value for every declared parameter
// (defaults filled in), so policy constructors may index it directly.
type Params map[string]float64

// Get returns the named parameter's value. On a Params produced by
// ResolveParams the value is always present; absent keys read as zero.
func (p Params) Get(name string) float64 { return p[name] }

// ParamSpec declares one tunable a policy accepts through the
// configuration's AlgParams map. The range [Min, Max] is enforced by
// ResolveParams when Max > Min; otherwise the parameter is unconstrained.
type ParamSpec struct {
	Name     string
	Default  float64
	Min, Max float64
	Doc      string
}

// Instance is one channel's live scheduling state: the per-pick phase
// restrictions and the service feedback a policy consumes. Instances are
// created per controller by Policy.New and are never shared.
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
// Contract (checked by sched/policytest):
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
//     feedback policies like BLISS blacklisting or ATLAS attained
//     service. It is called for every policy, in issue order.
type Instance interface {
	RowHitFirst() bool
	BeginPick(now simtime.Time) int
	PhaseMask(phase int) (mask uint64, ok bool)
	PhaseAllows(phase, app int) bool
	OnServed(now simtime.Time, app int)
}

// Policy is the factory a scheduling algorithm registers: a canonical
// name (the value of the configuration's Algorithm field) and a
// constructor producing per-channel instances. apps is the number of
// applications the workload multiprograms; params is the resolved
// parameter set (see ResolveParams).
type Policy interface {
	Name() string
	New(apps int, params Params) Instance
}

// AxisPoint is one point of a ready-made sweep axis: a human label and
// the JSON config patch that selects the point.
type AxisPoint struct {
	Label string
	Patch string
}

// AxisSpec is a ready-made sweep axis a policy ships with its
// registration (e.g. a threshold sweep). internal/exp converts these to
// SweepSpec axes via PolicyAxes.
type AxisSpec struct {
	Name   string
	Points []AxisPoint
}

// Registration bundles a Policy with the metadata the rest of the system
// consumes: accepted spellings, a one-line description, the declared
// tunables, and ready-made sweep axes.
type Registration struct {
	Policy    Policy
	Aliases   []string
	Doc       string
	Params    []ParamSpec
	SweepAxes []AxisSpec

	// defaults is the fully-defaulted parameter set, precomputed by
	// Register so the no-override ResolveParams path (one call per
	// controller construction) allocates nothing.
	defaults Params
}

var (
	regMu    sync.Mutex
	registry = map[string]*Registration{} // lower-cased name and aliases
	regNames []string                     // canonical names, registration order
)

// Register adds a policy to the registry. The canonical name and every
// alias must be unused (case-insensitively); a duplicate is an error so
// two packages cannot silently shadow each other. Registrations normally
// happen in package init functions; blank-import a policy package (or
// dcasim/internal/sched/policies for the whole in-tree set) to make it
// available.
func Register(r Registration) error {
	if r.Policy == nil {
		return fmt.Errorf("sched: Register: nil Policy")
	}
	name := r.Policy.Name()
	if name == "" {
		return fmt.Errorf("sched: Register: empty policy name")
	}
	seen := map[string]bool{}
	keys := make([]string, 0, 1+len(r.Aliases))
	for _, k := range append([]string{name}, r.Aliases...) {
		if !validPolicyName(k) {
			return fmt.Errorf("sched: Register %q: name %q must match [A-Za-z0-9._+-]+ (names flow into JSON configs and docs tables unescaped)", name, k)
		}
		lk := strings.ToLower(k)
		if !seen[lk] {
			seen[lk] = true
			keys = append(keys, lk)
		}
	}
	for _, s := range r.Params {
		if s.Name == "" {
			return fmt.Errorf("sched: Register %q: unnamed ParamSpec", name)
		}
		if s.Max > s.Min && (s.Default < s.Min || s.Default > s.Max) {
			return fmt.Errorf("sched: Register %q: parameter %q default %v outside [%v, %v]",
				name, s.Name, s.Default, s.Min, s.Max)
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, k := range keys {
		if prev, ok := registry[k]; ok {
			return fmt.Errorf("sched: policy name %q already registered (by %q)", k, prev.Policy.Name())
		}
	}
	stored := r
	stored.defaults = make(Params, len(r.Params))
	for _, s := range r.Params {
		stored.defaults[s.Name] = s.Default
	}
	for _, k := range keys {
		registry[k] = &stored
	}
	// Also index the exact spellings (canonical name and aliases as
	// given): Lookup then hits them without lowercasing, keeping the
	// per-controller resolution allocation-free. The case-insensitive
	// collision check above already covered every case variant, so the
	// extra keys cannot clash.
	for _, k := range append([]string{name}, r.Aliases...) {
		registry[k] = &stored
	}
	regNames = append(regNames, name)
	return nil
}

// validPolicyName restricts registered names and aliases to characters
// that survive JSON encoding without escaping and render cleanly in
// markdown tables: docs/adding-a-policy.md's policy table is matched by
// a literal-name regexp.
func validPolicyName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '+' || c == '-':
		default:
			return false
		}
	}
	return true
}

// MustRegister is Register that panics on error, for package init use.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// Lookup resolves a policy name or alias (case-insensitively) to its
// registration.
func Lookup(name string) (*Registration, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	if r, ok := registry[name]; ok {
		return r, true
	}
	r, ok := registry[strings.ToLower(name)]
	return r, ok
}

// Names returns the canonical names of every registered policy, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, len(regNames))
	copy(out, regNames)
	sort.Strings(out)
	return out
}

// ResolveParams validates raw overrides (the configuration's AlgParams
// map) against the declared ParamSpecs and returns the full parameter
// set: defaults for every declared parameter, overridden where given.
// Unknown parameter names and out-of-range values are errors.
//
// With no overrides the returned Params is a map shared by every
// caller (precomputed at registration, so controller construction does
// not allocate); treat it as read-only, as policy constructors do.
func (r *Registration) ResolveParams(overrides map[string]float64) (Params, error) {
	// defaults is nil only on a Registration that never went through
	// Register (possible in tests); fall through and build the map.
	if len(overrides) == 0 && r.defaults != nil {
		return r.defaults, nil
	}
	p := make(Params, len(r.Params))
	for _, s := range r.Params {
		p[s.Name] = s.Default
	}
	if len(overrides) == 0 {
		return p, nil
	}
	keys := make([]string, 0, len(overrides))
	for k := range overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := overrides[k]
		spec := r.paramSpec(k)
		if spec == nil {
			return nil, fmt.Errorf("sched: policy %q has no parameter %q (declared: %s)",
				r.Policy.Name(), k, r.paramNames())
		}
		if spec.Max > spec.Min && (v < spec.Min || v > spec.Max) {
			return nil, fmt.Errorf("sched: policy %q parameter %q = %v outside [%v, %v]",
				r.Policy.Name(), k, v, spec.Min, spec.Max)
		}
		p[k] = v
	}
	return p, nil
}

func (r *Registration) paramSpec(name string) *ParamSpec {
	for i := range r.Params {
		if r.Params[i].Name == name {
			return &r.Params[i]
		}
	}
	return nil
}

func (r *Registration) paramNames() string {
	if len(r.Params) == 0 {
		return "none"
	}
	names := make([]string, len(r.Params))
	for i, s := range r.Params {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}
