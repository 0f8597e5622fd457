// Package mempred implements a MAP-I-style DRAM-cache miss predictor
// (Qureshi & Loh, MICRO 2012).
//
// MAP-I keeps a small table of saturating counters indexed by a hash of
// the requesting instruction address: instructions that recently missed
// are predicted to miss again, letting the controller launch the off-chip
// fetch in parallel with the in-DRAM tag probe and hide most of the miss
// penalty. The workload generators emit stable synthetic PCs, so the
// predictor sees the same instruction-correlated behaviour the original
// hardware design exploits.
package mempred

// TableSize is the number of counters per core; MAP-I uses a 256-entry
// table (96 bytes per core at 3 bits each).
const TableSize = 256

// MAPI is a per-core array of 3-bit saturating hit/miss counters.
// Counter semantics: 0 = strong miss ... 7 = strong hit; predictions
// above the midpoint are hits.
type MAPI struct {
	table [][]uint8

	Lookups        int64
	PredictedMiss  int64
	CorrectMiss    int64 // predicted miss, was miss
	FalseMiss      int64 // predicted miss, was hit (wasted fetch)
	MissedMiss     int64 // predicted hit, was miss (late fetch)
	CorrectHit     int64
	initialCounter uint8
}

// New builds a predictor for cores cores. Counters start weakly at hit
// (4): an empty predictor should not flood main memory with speculative
// fetches.
func New(cores int) *MAPI {
	m := &MAPI{table: make([][]uint8, cores), initialCounter: 4}
	for i := range m.table {
		row := make([]uint8, TableSize)
		for j := range row {
			row[j] = m.initialCounter
		}
		m.table[i] = row
	}
	return m
}

// Clone returns an independent copy of the predictor, counters included.
// A nil predictor clones to nil.
func (m *MAPI) Clone() *MAPI {
	if m == nil {
		return nil
	}
	c := *m
	c.table = make([][]uint8, len(m.table))
	for i, row := range m.table {
		c.table[i] = append([]uint8(nil), row...)
	}
	return &c
}

func index(pc uint64) int {
	// Fibonacci hashing folds the PC into the table.
	return int((pc * 0x9e3779b97f4a7c15) >> 56)
}

// PredictMiss returns true when the request from (core, pc) is predicted
// to miss in the DRAM cache.
func (m *MAPI) PredictMiss(core int, pc uint64) bool {
	m.Lookups++
	miss := m.table[core][index(pc)] < 4
	if miss {
		m.PredictedMiss++
	}
	return miss
}

// Update trains the predictor with the actual outcome and accounts
// prediction accuracy. predictedMiss must be the value PredictMiss
// returned for this request.
func (m *MAPI) Update(core int, pc uint64, predictedMiss, wasHit bool) {
	ctr := &m.table[core][index(pc)]
	if wasHit {
		if *ctr < 7 {
			*ctr++
		}
	} else {
		if *ctr > 0 {
			*ctr--
		}
	}
	switch {
	case predictedMiss && !wasHit:
		m.CorrectMiss++
	case predictedMiss && wasHit:
		m.FalseMiss++
	case !predictedMiss && !wasHit:
		m.MissedMiss++
	default:
		m.CorrectHit++
	}
}
