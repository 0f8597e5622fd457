// Package dram models the timing behaviour of a die-stacked DRAM channel:
// per-bank row-buffer state, activation/precharge/CAS latencies, data-bus
// occupancy, and — central to the paper — read/write bus turnarounds.
//
// The model is analytic rather than command-cycle-accurate: when the
// controller issues an access the channel computes the completion time
// from the bank and bus state and charges every constraint on the critical
// path (precharge + activate on a row conflict, tWTR/tRTW on a direction
// switch, burst occupancy on the shared data bus).
//
// Each channel has one access in flight, from its issue until its data
// burst ends: the controller issues the next access only once the
// previous burst has completed, and Issue panics if called earlier. So
// the next access's precharge, activate and CAS latency never overlap
// the current burst, a stream of row hits takes tCAS + tBURST per
// access, and Issue's shift of a data burst past a busy bus cannot fire
// under today's controller. Pipelining accesses on a channel is an open
// item in ROADMAP.md.
package dram

import (
	"fmt"

	"dcasim/internal/simtime"
)

// Timing collects the stacked-DRAM timing parameters of the paper's
// Table II.
type Timing struct {
	TRCD   simtime.Time // activate to CAS
	TCAS   simtime.Time // CAS to first data beat (CL; CWL assumed equal)
	TRP    simtime.Time // precharge latency
	TRAS   simtime.Time // activate to precharge minimum
	TWTR   simtime.Time // write burst end to read CAS (write→read turnaround)
	TRTP   simtime.Time // read CAS to precharge
	TRTW   simtime.Time // read burst end to write CAS (read→write turnaround)
	TWR    simtime.Time // write burst end to precharge (write recovery)
	TBurst simtime.Time // data burst for one 64 B block
}

// StackedDRAM returns the die-stacked DRAM timings used throughout the
// paper's evaluation: tRCD-tCAS-tRP-tRAS = 8-8-8-30 ns,
// tWTR-tRTP-tRTW = 5-7.5-1.67 ns, tWR-tBURST = 15-3.33 ns.
func StackedDRAM() Timing {
	return Timing{
		TRCD:   simtime.FromNS(8),
		TCAS:   simtime.FromNS(8),
		TRP:    simtime.FromNS(8),
		TRAS:   simtime.FromNS(30),
		TWTR:   simtime.FromNS(5),
		TRTP:   simtime.FromNS(7.5),
		TRTW:   simtime.FromNS(1.67),
		TWR:    simtime.FromNS(15),
		TBurst: simtime.FromNS(3.33),
	}
}

// Validate rejects a negative timing, which would schedule a command
// before the one it waits for, and a zero TBurst, which would give the
// data bus unlimited bandwidth. Other zero timings are legal ideal
// points: a zero TWTR or TRTW removes the bus turnaround.
func (t Timing) Validate() error {
	for _, f := range [...]struct {
		name string
		v    simtime.Time
	}{
		{"TRCD", t.TRCD}, {"TCAS", t.TCAS}, {"TRP", t.TRP}, {"TRAS", t.TRAS}, {"TWTR", t.TWTR},
		{"TRTP", t.TRTP}, {"TRTW", t.TRTW}, {"TWR", t.TWR}, {"TBurst", t.TBurst},
	} {
		if f.v < 0 {
			return fmt.Errorf("dram: negative Timing.%s %v", f.name, f.v)
		}
	}
	if t.TBurst == 0 {
		return fmt.Errorf("dram: zero Timing.TBurst gives the data bus unlimited bandwidth")
	}
	return nil
}

// BurstTime returns the data-bus occupancy of a transfer of the given
// number of bytes, scaling the single-block burst linearly and rounding
// up to a whole number of 16-byte beats so a 72 B TAD costs more than a
// 64 B block but less than two blocks.
func (t Timing) BurstTime(bytes int) simtime.Time {
	const beat = 16
	beats := (bytes + beat - 1) / beat
	blockBeats := 64 / beat
	return t.TBurst * simtime.Time(beats) / simtime.Time(blockBeats)
}
