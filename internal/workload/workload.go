// Package workload generates deterministic synthetic memory traces shaped
// like the memory-intensive SPEC CPU2006 benchmarks the paper evaluates
// (Table I). Each benchmark is characterised by its memory intensity,
// store fraction, working-set size, and access-pattern mix (streaming
// runs, hot-set reuse, and irregular pointer-chasing), and each access
// carries a stable synthetic PC so the MAP-I miss predictor sees
// instruction-correlated behaviour.
//
// The generators do not claim instruction-level fidelity to SPEC; they
// reproduce the traffic properties DCA's benefit depends on — the ratio
// of latency-critical reads to writebacks/refills, row-buffer locality,
// and bank-conflict pressure. See DESIGN.md §3.
package workload

import (
	"fmt"
	"sort"

	"dcasim/internal/rng"
)

// Op is one memory operation of a trace.
type Op struct {
	Gap   int    // non-memory instructions preceding this operation
	Store bool   // store (true) or load (false)
	Addr  int64  // block address (physical address >> 6)
	PC    uint64 // synthetic program counter of the instruction
}

// Source is a deterministic stream of memory operations driving one
// core. The synthetic generator (*Gen) is the built-in implementation;
// internal/trace provides recording tees and trace-file replay sources.
// Implementations must be infinite for the consumer's purposes: Next
// never blocks and never fails — a source backed by finite external data
// reports exhaustion out of band (see trace.Reader.Err).
type Source interface {
	Next() Op
}

// Profile describes one synthetic benchmark.
type Profile struct {
	Name         string
	MemPer1000   int     // memory operations per 1000 instructions
	StoreFrac    float64 // fraction of memory operations that are stores
	WorkingSetMB int     // footprint in MB
	SeqProb      float64 // probability an op continues a streaming run
	SeqRun       int     // mean streaming run length in blocks
	HotProb      float64 // probability an op goes to the hot set
	HotBlocks    int     // hot-set size in blocks
	RepeatProb   float64 // probability of re-touching the previous block (L1 reuse)
}

// profiles lists the 11 SPEC CPU2006 benchmarks of Table I with traffic
// characteristics drawn from their published characterisations:
// libquantum/lbm/bwaves/leslie3d stream; mcf/omnetpp/astar chase
// pointers; milc/GemsFDTD mix; lbm is write-heavy.
var profiles = map[string]Profile{
	"mcf":        {Name: "mcf", MemPer1000: 50, StoreFrac: 0.22, WorkingSetMB: 192, SeqProb: 0.10, SeqRun: 4, HotProb: 0.25, HotBlocks: 4096, RepeatProb: 0.20},
	"soplex":     {Name: "soplex", MemPer1000: 38, StoreFrac: 0.25, WorkingSetMB: 96, SeqProb: 0.55, SeqRun: 12, HotProb: 0.20, HotBlocks: 8192, RepeatProb: 0.25},
	"gcc":        {Name: "gcc", MemPer1000: 22, StoreFrac: 0.32, WorkingSetMB: 48, SeqProb: 0.40, SeqRun: 8, HotProb: 0.30, HotBlocks: 16384, RepeatProb: 0.30},
	"libquantum": {Name: "libquantum", MemPer1000: 42, StoreFrac: 0.25, WorkingSetMB: 64, SeqProb: 0.95, SeqRun: 64, HotProb: 0.02, HotBlocks: 1024, RepeatProb: 0.15},
	"astar":      {Name: "astar", MemPer1000: 34, StoreFrac: 0.28, WorkingSetMB: 96, SeqProb: 0.15, SeqRun: 4, HotProb: 0.30, HotBlocks: 8192, RepeatProb: 0.25},
	"omnetpp":    {Name: "omnetpp", MemPer1000: 36, StoreFrac: 0.33, WorkingSetMB: 128, SeqProb: 0.12, SeqRun: 4, HotProb: 0.25, HotBlocks: 8192, RepeatProb: 0.22},
	"GemsFDTD":   {Name: "GemsFDTD", MemPer1000: 44, StoreFrac: 0.30, WorkingSetMB: 128, SeqProb: 0.70, SeqRun: 24, HotProb: 0.10, HotBlocks: 4096, RepeatProb: 0.18},
	"leslie3d":   {Name: "leslie3d", MemPer1000: 40, StoreFrac: 0.30, WorkingSetMB: 96, SeqProb: 0.75, SeqRun: 24, HotProb: 0.08, HotBlocks: 4096, RepeatProb: 0.18},
	"bwaves":     {Name: "bwaves", MemPer1000: 48, StoreFrac: 0.24, WorkingSetMB: 160, SeqProb: 0.85, SeqRun: 48, HotProb: 0.05, HotBlocks: 2048, RepeatProb: 0.15},
	"lbm":        {Name: "lbm", MemPer1000: 50, StoreFrac: 0.45, WorkingSetMB: 128, SeqProb: 0.90, SeqRun: 48, HotProb: 0.02, HotBlocks: 1024, RepeatProb: 0.12},
	"milc":       {Name: "milc", MemPer1000: 40, StoreFrac: 0.35, WorkingSetMB: 144, SeqProb: 0.50, SeqRun: 16, HotProb: 0.12, HotBlocks: 4096, RepeatProb: 0.18},
}

// Lookup returns the profile for a benchmark name.
func Lookup(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// Names returns the benchmark names in sorted order.
func Names() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Gen produces the trace of one benchmark instance. Generators with the
// same profile, seed, and base produce identical streams.
type Gen struct {
	prof     Profile
	rng      *rng.Rand
	base     int64 // address-space offset isolating cores from each other
	wsBlocks int64
	scale    float64

	cursor   int64 // streaming position
	runLeft  int
	lastAddr int64
	pcBase   uint64
	streamID uint64
	meanGap  int // precomputed from the profile's memory intensity
}

// NewGen builds a generator. wsScale scales the profile's working set
// (1.0 = paper scale); base offsets the address space, giving each core a
// private footprint as in multiprogrammed SPEC runs.
func NewGen(prof Profile, seed uint64, base int64, wsScale float64) *Gen {
	if wsScale <= 0 {
		wsScale = 1
	}
	ws := int64(float64(prof.WorkingSetMB) * wsScale * 1024 * 1024 / 64)
	if ws < 1024 {
		ws = 1024
	}
	g := &Gen{
		prof:     prof,
		rng:      rng.New(seed),
		base:     base,
		wsBlocks: ws,
		scale:    wsScale,
		pcBase:   hashName(prof.Name),
	}
	g.meanGap = 1000/prof.MemPer1000 - 1
	if g.meanGap < 0 {
		g.meanGap = 0
	}
	g.cursor = g.rng.Int63n(ws)
	g.lastAddr = g.base + g.cursor
	return g
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h | 1
}

// Clone returns a generator that continues g's stream from its current
// position, independently of g.
func (g *Gen) Clone() *Gen {
	c := *g
	r := *g.rng
	c.rng = &r
	return &c
}

// WorkingSetBlocks returns the effective footprint in blocks.
func (g *Gen) WorkingSetBlocks() int64 { return g.wsBlocks }

// Next produces the next memory operation of the trace.
//
//dcalint:noalloc
func (g *Gen) Next() Op {
	p := g.prof
	meanGap := g.meanGap
	gap := meanGap/2 + g.rng.Intn(meanGap+1)

	store := g.rng.Bool(p.StoreFrac)
	var addr int64
	var pc uint64
	switch {
	case g.rng.Bool(p.RepeatProb):
		// Short-range reuse of the previous block (register-spill /
		// same-structure accesses) — this is what the L1 filters.
		addr = g.lastAddr
		pc = g.pcBase + 1
	case g.runLeft > 0 || g.rng.Bool(p.SeqProb):
		// Streaming run.
		if g.runLeft == 0 {
			g.runLeft = 1 + g.rng.Intn(2*p.SeqRun)
			// Occasionally restart the stream elsewhere.
			if g.rng.Bool(0.2) {
				g.cursor = g.rng.Int63n(g.wsBlocks)
				g.streamID++
			}
		}
		g.runLeft--
		g.cursor = (g.cursor + 1) % g.wsBlocks
		addr = g.base + g.cursor
		pc = g.pcBase + 16 + g.streamID%4
	case g.rng.Bool(p.HotProb):
		// Hot-set reuse (L2-resident data).
		addr = g.base + g.rng.Int63n(int64(p.HotBlocks))
		pc = g.pcBase + 32 + uint64(g.rng.Intn(4))
	default:
		// Irregular access over the whole footprint.
		addr = g.base + g.rng.Int63n(g.wsBlocks)
		pc = g.pcBase + 64 + uint64(g.rng.Intn(8))
	}
	g.lastAddr = addr
	return Op{Gap: gap, Store: store, Addr: addr, PC: pc}
}
