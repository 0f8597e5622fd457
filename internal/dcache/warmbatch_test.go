package dcache

import (
	"reflect"
	"slices"
	"testing"
)

// TestWarmBatchMatchesPerCall: a recorded warm-up call stream, whose
// length is not a multiple of the batch and which gets one extra Flush
// mid-stream, leaves contents fed through one WarmBatch exactly as it
// leaves contents fed call by call, in each organization: tag stores,
// MAP-I tables and MAP-I counters.
func TestWarmBatchMatchesPerCall(t *testing.T) {
	calls := warmCalls(t, 300*warmBatchCalls+37)
	var batched, perCall []*Contents
	for _, org := range []Org{SetAssoc, DirectMapped} {
		for _, dcs := range []*[]*Contents{&batched, &perCall} {
			c, err := NewContents(Config{Org: org, SizeBytes: 1 << 20, DRAM: paperDRAM(), UseMAPI: true, Cores: 4}, nil)
			if err != nil {
				t.Fatal(err)
			}
			*dcs = append(*dcs, c)
		}
	}
	b := NewWarmBatch(batched)
	for i, k := range calls {
		if k.write {
			b.Write(k.addr, k.core)
		} else {
			b.Read(k.addr, k.core, k.pc)
		}
		if i == len(calls)/2+5 {
			b.Flush()
		}
		for _, c := range perCall {
			if k.write {
				c.WarmWrite(k.addr, k.core)
			} else {
				c.WarmRead(k.addr, k.core, k.pc)
			}
		}
	}
	b.Flush()
	for i, c := range perCall {
		got := batched[i]
		if !slices.Equal(got.tags.words, c.tags.words) {
			t.Errorf("%v: the batched tag store differs from the per-call one", c.Org())
		}
		if !reflect.DeepEqual(got.mapi, c.mapi) {
			t.Errorf("%v: the batched MAP-I table or counters differ from the per-call ones", c.Org())
		}
	}
}
