package main

import (
	"encoding/json"
	"os"
	"time"

	"dcasim/internal/exp"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced passes pay only a nil check.
type tracer struct {
	origin time.Time
	pass   int // id shared by the spans of one pass; 0 during set-up
	events []traceEvent

	setupRuns, passRuns []float64 // run-span durations in seconds
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, in microseconds since the run started.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]int `json:"args"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()}
}

func (t *tracer) span(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Phase: "X", PID: 1, TID: 1,
		TS:   float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		Dur:  float64(d.Nanoseconds()) / 1e3,
		Args: map[string]int{"pass": t.pass},
	})
}

// run records one resolved run: a simulation or a result-cache read.
func (t *tracer) run(start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.span("run", start, d)
	if t.pass == 0 {
		t.setupRuns = append(t.setupRuns, d.Seconds())
	} else {
		t.passRuns = append(t.passRuns, d.Seconds())
	}
}

// progress returns an observer that turns a Runner's completion events
// into run spans; nil when not tracing. With one worker the runs of an
// Ensure pass are sequential, so each run lasts from the previous event
// to its own. Runs answered from the Runner's in-memory memo neither
// simulate nor read the cache and are left out.
func (t *tracer) progress() exp.ProgressFunc {
	if t == nil {
		return nil
	}
	var prev time.Duration
	var sims, hits int64
	return func(p exp.Progress) {
		now := time.Now()
		if p.Done == 1 {
			prev = 0
		}
		d := p.Elapsed - prev
		if p.Simulated > sims || p.CacheHits > hits {
			t.run(now.Add(-d), d)
		}
		prev, sims, hits = p.Elapsed, p.Simulated, p.CacheHits
	}
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{t.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
