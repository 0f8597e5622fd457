// Package core implements the paper's primary contribution: DRAM cache
// controllers that schedule the multiple DRAM accesses a DRAM-cache
// request expands into.
//
// Three designs are provided (paper §III–§IV):
//
//   - CD, the Conventional Design: accesses are queued by access type
//     (reads to the read queue, writes to the write queue) exactly as in a
//     conventional DRAM memory controller. CD minimises bus turnarounds
//     but suffers read priority inversion and read-read conflicts because
//     tag reads of writeback requests share the read queue with the
//     latency-critical reads of cache read requests.
//
//   - ROD, the Request-Oriented Design: accesses are queued by request
//     type (all accesses of a read request to the read queue; all accesses
//     of writeback/refill requests to the write queue, with the write-tag
//     of a read request also going to the write queue). ROD avoids
//     priority inversion but mixes reads and writes inside each queue, so
//     it pays frequent bus turnarounds and longer write-queue flushes.
//
//   - DCA, the DRAM-Cache-Aware design: CD's queue mapping plus a
//     two-level read classification. Reads from cache read requests are
//     priority reads (PR); reads from writeback/refill requests are
//     low-priority reads (LR). LRs are held like writes and drained either
//     when read-queue occupancy crosses a hysteresis threshold
//     (ScheduleAll, on >85 % / off <75 %) or opportunistically (OFS) when
//     no PR is pending and the LR's bank shows no row conflict or has a
//     re-reference prediction counter (RRPC) below the flushing factor.
//
// The design and the scheduling algorithm are closed sets: the paper's
// CD/ROD/DCA × BLISS/FR-FCFS/FCFS grid. BLISS is the paper's baseline;
// FR-FCFS and FCFS back its §IV-B claim that DCA "is not limited to any
// scheduling algorithm". The policies themselves live in
// dcasim/internal/sched.
package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"dcasim/internal/dram"
	"dcasim/internal/sched"
)

// Design selects a controller organisation: one of the paper's three.
type Design int

// The paper's controller designs.
const (
	CD Design = iota
	ROD
	DCA
)

// designTraits is what distinguishes one design from another.
type designTraits struct {
	name string

	// route decides whether an access of the given DRAM kind, belonging
	// to a request of the given type, enters the write queue (otherwise
	// it is a read-queue resident). This is the queue-mapping half of a
	// design (paper Fig. 3 and Fig. 6).
	route func(kind dram.Kind, req RequestType) bool

	// twoLevel enables DCA's two-level read classification: PR/LR lanes,
	// the ScheduleAll occupancy hysteresis, and opportunistic flushing
	// (OFS). Without it every read schedules equally.
	twoLevel bool

	// Table II queue capacities, for DefaultConfig.
	readCap, writeCap int
}

// traits returns the design's name, queue mapping, two-level flag and
// Table II queue capacities; ok is false for a value that is none of
// CD, ROD and DCA.
func (d Design) traits() (t designTraits, ok bool) {
	switch d {
	case CD:
		return designTraits{name: "CD", route: routeByAccessType, readCap: 64, writeCap: 64}, true
	case ROD:
		// ROD narrows the read queue and widens the write queue because
		// whole requests land on one side.
		return designTraits{name: "ROD", route: routeByRequestType, readCap: 32, writeCap: 96}, true
	case DCA:
		return designTraits{name: "DCA", route: routeByAccessType, twoLevel: true, readCap: 64, writeCap: 64}, true
	}
	return designTraits{}, false
}

// routeByAccessType is the CD/DCA queue mapping: writes to the write
// queue, reads to the read queue, regardless of the owning request.
func routeByAccessType(kind dram.Kind, _ RequestType) bool {
	return kind.IsWrite()
}

// routeByRequestType is the ROD mapping: every access follows its
// request, except the write-tag of a read request, which the paper's
// footnote sends to the write queue for performance.
func routeByRequestType(kind dram.Kind, req RequestType) bool {
	switch req {
	case ReadReq:
		return kind.IsWrite()
	case WritebackReq, RefillReq:
		return true
	default:
		panic(fmt.Sprintf("core: routeByRequestType: unknown request type %d", int(req)))
	}
}

// String implements fmt.Stringer.
func (d Design) String() string {
	if t, ok := d.traits(); ok {
		return t.name
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// ParseDesign resolves a design name, in any case.
func ParseDesign(s string) (Design, error) {
	for _, d := range [...]Design{CD, ROD, DCA} {
		if strings.EqualFold(s, d.String()) {
			return d, nil
		}
	}
	return CD, fmt.Errorf("core: unknown design %q (want CD, ROD or DCA)", s)
}

// MarshalJSON encodes the design as its canonical name so serialized
// configurations read "DCA" rather than an opaque enum ordinal.
func (d Design) MarshalJSON() ([]byte, error) {
	t, ok := d.traits()
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal unknown design %d", int(d))
	}
	return json.Marshal(t.name)
}

// UnmarshalJSON accepts the same names ParseDesign does.
func (d *Design) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: design must be a JSON string: %s", b)
	}
	v, err := ParseDesign(s)
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// RequestType classifies the DRAM-cache request an access belongs to.
type RequestType uint8

const (
	ReadReq      RequestType = iota // demand read from the upper-level cache
	WritebackReq                    // dirty eviction from the upper-level cache
	RefillReq                       // fill after a DRAM-cache miss
)

// String implements fmt.Stringer.
func (t RequestType) String() string {
	switch t {
	case ReadReq:
		return "read"
	case WritebackReq:
		return "writeback"
	case RefillReq:
		return "refill"
	}
	return "?"
}

// Algorithm names the base scheduling algorithm within a priority class:
// one of the paper's three. The zero value canonicalises to BLISS, the
// paper's baseline.
type Algorithm string

// The paper's three policies.
const (
	// AlgBLISS is blacklisting + row-hit-first + direction + age.
	AlgBLISS Algorithm = "BLISS"
	// AlgFRFCFS drops the blacklisting component.
	AlgFRFCFS Algorithm = "FR-FCFS"
	// AlgFCFS is pure age order (no row-hit or direction preference).
	AlgFCFS Algorithm = "FCFS"
)

// lookupAlgorithm resolves a spelling of one of the three algorithms:
// its canonical name in any case, or the alias "frfcfs".
func lookupAlgorithm(s string) (Algorithm, bool) {
	for _, a := range [...]Algorithm{AlgBLISS, AlgFRFCFS, AlgFCFS} {
		if strings.EqualFold(s, string(a)) {
			return a, true
		}
	}
	if strings.EqualFold(s, "frfcfs") {
		return AlgFRFCFS, true
	}
	return "", false
}

// Canonical maps the zero value to BLISS (the default algorithm) and any
// accepted spelling to its canonical name; unknown names pass through
// unchanged for the caller to reject.
func (a Algorithm) Canonical() Algorithm {
	if a == "" {
		return AlgBLISS
	}
	if c, ok := lookupAlgorithm(string(a)); ok {
		return c
	}
	return a
}

// String implements fmt.Stringer, canonicalising first so the zero value
// reads "BLISS".
func (a Algorithm) String() string { return string(a.Canonical()) }

// ParseAlgorithm resolves an algorithm name, in any case, with "frfcfs"
// accepted for FR-FCFS.
func ParseAlgorithm(s string) (Algorithm, error) {
	if a, ok := lookupAlgorithm(s); ok {
		return a, nil
	}
	return AlgBLISS, fmt.Errorf("core: unknown scheduling algorithm %q (want BLISS, FR-FCFS or FCFS)", s)
}

// MarshalJSON encodes the algorithm as its canonical name.
func (a Algorithm) MarshalJSON() ([]byte, error) {
	c, ok := lookupAlgorithm(string(a.Canonical()))
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal unknown algorithm %q", string(a))
	}
	return json.Marshal(string(c))
}

// UnmarshalJSON accepts the same names ParseAlgorithm does.
func (a *Algorithm) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: algorithm must be a JSON string: %s", b)
	}
	v, err := ParseAlgorithm(s)
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// newInstance builds one channel's scheduling-policy instance for apps
// applications. The algorithm must be one ParseAlgorithm accepts.
func (a Algorithm) newInstance(apps int) sched.Instance {
	switch a.Canonical() {
	case AlgBLISS:
		return sched.NewBLISSInstance(apps)
	case AlgFRFCFS:
		return sched.FRFCFS{}
	case AlgFCFS:
		return sched.FCFS{}
	}
	panic(fmt.Sprintf("core: unknown scheduling algorithm %q", string(a)))
}

// Config holds the per-channel queue and threshold parameters (Table II).
type Config struct {
	Design    Design
	Algorithm Algorithm // base scheduling algorithm (default BLISS)

	ReadQueueCap  int
	WriteQueueCap int

	// Write-queue passive flushing thresholds as queue fractions:
	// reaching High forces a drain that stops at Low; when no reads are
	// pending a drain also starts above Low.
	WriteFlushLow  float64
	WriteFlushHigh float64

	// DCA ScheduleAll hysteresis on read-queue occupancy.
	ScheduleAllHigh float64
	ScheduleAllLow  float64

	// FlushFactor is the OFS RRPC threshold (FF; the paper uses FF-4).
	FlushFactor uint8
}

// DefaultConfig returns the Table II parameters for a design: 64-entry
// read and write queues (ROD: 32-entry read, 96-entry write), write
// flush thresholds 50 %/85 %, DCA ScheduleAll thresholds 75 %/85 %,
// FF-4.
func DefaultConfig(d Design) Config {
	t, _ := d.traits() // an unknown design gets zero caps; Validate names it
	return Config{
		Design:          d,
		Algorithm:       AlgBLISS,
		ReadQueueCap:    t.readCap,
		WriteQueueCap:   t.writeCap,
		WriteFlushLow:   0.50,
		WriteFlushHigh:  0.85,
		ScheduleAllHigh: 0.85,
		ScheduleAllLow:  0.75,
		FlushFactor:     4,
	}
}

// Validate reports a descriptive error for unusable parameters,
// including a design or algorithm outside the paper's grid.
func (c Config) Validate() error {
	if _, ok := c.Design.traits(); !ok {
		return fmt.Errorf("core: unknown design %d (want CD, ROD or DCA)", int(c.Design))
	}
	if _, err := ParseAlgorithm(string(c.Algorithm.Canonical())); err != nil {
		return err
	}
	if err := c.checkFinite(); err != nil {
		return err
	}
	switch {
	case c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0:
		return fmt.Errorf("core: non-positive queue capacity %+v", c)
	case c.WriteFlushLow <= 0 || c.WriteFlushHigh > 1 || c.WriteFlushLow > c.WriteFlushHigh:
		return fmt.Errorf("core: bad write flush thresholds low=%v high=%v", c.WriteFlushLow, c.WriteFlushHigh)
	case c.ScheduleAllLow <= 0 || c.ScheduleAllHigh > 1 || c.ScheduleAllLow > c.ScheduleAllHigh:
		return fmt.Errorf("core: bad ScheduleAll thresholds low=%v high=%v", c.ScheduleAllLow, c.ScheduleAllHigh)
	case c.FlushFactor > 7:
		return fmt.Errorf("core: flush factor %d exceeds 3-bit RRPC range", c.FlushFactor)
	}
	return nil
}

// checkFinite reports the first NaN or infinite threshold, naming it:
// the comparisons in Validate let NaN through, and a config holding one
// cannot be hashed.
func (c Config) checkFinite() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"WriteFlushLow", c.WriteFlushLow},
		{"WriteFlushHigh", c.WriteFlushHigh},
		{"ScheduleAllHigh", c.ScheduleAllHigh},
		{"ScheduleAllLow", c.ScheduleAllLow},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %v is not a finite number", f.name, f.v)
		}
	}
	return nil
}
