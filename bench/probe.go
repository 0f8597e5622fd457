package main

import "time"

// Benchmark hosts are shared. On a shared 2-vCPU virtual machine (Intel
// Xeon, 2.1 GHz) the same pass ran up to 1.4x slower from one run to the
// next as its neighbours got busier, in CPU time as much as in wall
// time, so medians of raw host time spread 8-40% across runs. Every
// timed interval is therefore bracketed by probes, a fixed workload that
// depends on nothing in this repository, and reported in reference
// seconds: its host time scaled by refProbe over the probes' mean time.
// Of the probes tried (an ALU loop, a pointer chase, random stores, map
// updates) the map probe tracked the simulator best, bringing the spread
// of pass-time medians over ten seeded runs to 1-7%.

// refProbe is the probe's time on that machine when quiet; a reference
// second is a second on a host that runs the probe in this time.
const refProbe = 8 * time.Millisecond

var probeSink uint64

// probe times hash-map updates over 50,000 keys: pointer-heavy,
// cache-sensitive Go, like the simulator's structures and the JSON codec
// behind its result cache.
func probe() time.Duration {
	start := time.Now()
	m := make(map[uint64]uint64)
	x := uint64(1)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x%50_000] += x
	}
	probeSink += uint64(len(m))
	return time.Since(start)
}

// refSeconds converts host time d into reference seconds, given the mean
// time p of the probes around it.
func refSeconds(d, p time.Duration) float64 {
	return d.Seconds() * float64(refProbe) / float64(p)
}
