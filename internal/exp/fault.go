package exp

import (
	"fmt"
	"runtime/debug"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/sim"
)

// RunPanicError is a simulation panic converted into a run error: one
// panicking config fails its own run instead of crashing the process
// and losing every in-flight sibling of the sweep. The stack is
// captured for diagnostics but kept out of Error() — error text flows
// into the deterministic sweep output, and goroutine addresses would
// make it differ run to run.
type RunPanicError struct {
	Hash  string // config.Config.Hash() of the panicking run
	Value string // the panic value, stringified
	Stack []byte // stack of the panicking goroutine, for diagnostics
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("run panicked: %s (config %.12s…)", e.Value, e.Hash)
}

// RunTimeoutError reports a run that exceeded the per-run watchdog.
type RunTimeoutError struct {
	Hash    string // config.Config.Hash() of the runaway run
	Timeout time.Duration
}

func (e *RunTimeoutError) Error() string {
	return fmt.Sprintf("run exceeded the %v watchdog (config %.12s…)", e.Timeout, e.Hash)
}

// runIsolated invokes one simulation behind a panic barrier: a panic
// anywhere under the simulator surfaces as a *RunPanicError for exactly
// this config. Isolation is per run, not per process — the memo records
// the error under the config's hash like any other failure, so a
// fail-fast pass still reports the first failure in dispatch order and
// a keep-going pass carries on past it. A panicking warm-group member
// leaves its half-run warm state behind; the group's next member warms
// afresh.
func (r *Runner) runIsolated(cfg config.Config, s *warmSlot) (res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &RunPanicError{Hash: cfg.Hash(), Value: fmt.Sprint(v), Stack: debug.Stack()}
		}
	}()
	return r.run(cfg, s)
}

// execute runs one simulation with panic isolation and, when a run
// timeout is set, a watchdog. The watchdog abandons the runaway
// goroutine rather than killing it (Go offers no preemptive cancel,
// and the simulator deliberately takes no context — the deterministic
// core must not observe wall-clock): its leak is the accepted price,
// bounded by one goroutine per timed-out run, and it can never commit
// a result because the memo records the timeout error first. It keeps
// the warm slot it was given, and with it any warm state; the group
// goes on with a fresh slot.
func (r *Runner) execute(cfg config.Config, s *warmSlot) (sim.Result, error) {
	if r.runTimeout <= 0 {
		return r.runIsolated(cfg, s)
	}
	type outcome struct {
		res sim.Result
		err error
	}
	ch := make(chan outcome, 1) // buffered: a late finisher must not block forever
	go func() {
		res, err := r.runIsolated(cfg, s)
		ch <- outcome{res: res, err: err}
	}()
	timer := time.NewTimer(r.runTimeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		return sim.Result{}, &RunTimeoutError{Hash: cfg.Hash(), Timeout: r.runTimeout}
	}
}
