package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/rescache"
	"dcasim/internal/stats"
)

// SweepSpec is a user-authored, fully serializable scenario sweep: a
// preset scale, a base patch, named axes of config overrides, and the
// metrics to report. The engine runs the cartesian product of the axes
// through the memoizing (and, with a cache directory, persistent)
// runner and renders one table row per point — so exploring a new knob,
// including ones no CLI flag exposes, is writing JSON, not Go.
type SweepSpec struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`

	// Scale names the preset the sweep starts from ("paper", "bench",
	// or "test"); Base then patches it (deep-merged JSON, see
	// config.Config.Patch). Benchmarks and seed come from the resulting
	// config, not from workload mixes.
	Scale string          `json:"scale"`
	Base  json.RawMessage `json:"base,omitempty"`

	Axes    []SweepAxis `json:"axes"`
	Metrics []string    `json:"metrics"`

	// Replicates, when > 1, fans every point into that many seed-derived
	// runs (replicate k sets Seed to config.ReplicateSeed of the point's
	// seed) and renders each metric cell as mean ±CI95. 0/1 keep the
	// single-run output bit-identical to the unreplicated engine.
	// SweepOpts.Replicates, when nonzero, overrides this.
	Replicates int `json:"replicates,omitempty"`
}

// SweepAxis is one named dimension of the sweep.
type SweepAxis struct {
	Name   string       `json:"name"`
	Values []SweepPoint `json:"values"`
}

// SweepPoint is one value of an axis: a display label and the partial
// config it applies.
type SweepPoint struct {
	Label string          `json:"label"`
	Set   json.RawMessage `json:"set"`
}

// LoadSweep reads and validates a sweep spec. Unknown fields are errors
// for the same reason they are in config.Load: a typo silently ignored
// would sweep the wrong machine.
func LoadSweep(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("exp: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("exp: decode sweep %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return SweepSpec{}, fmt.Errorf("exp: %s: trailing data after the sweep document", path)
	}
	if err := s.Validate(); err != nil {
		return SweepSpec{}, fmt.Errorf("exp: sweep %s: %w", path, err)
	}
	return s, nil
}

// maxSweepRuns bounds a sweep's points times replicates, so a runaway
// cartesian product fails with an error instead of allocating every
// run's config up front.
const maxSweepRuns = 100_000

// Validate reports the first structural problem with the spec.
func (s SweepSpec) Validate() error {
	if s.Schema != config.SchemaVersion {
		return fmt.Errorf("schema %d, this build expects %d", s.Schema, config.SchemaVersion)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("no axes")
	}
	for _, ax := range s.Axes {
		if ax.Name == "" {
			return fmt.Errorf("axis with empty name")
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("axis %q has no values", ax.Name)
		}
	}
	if len(s.Metrics) == 0 {
		return fmt.Errorf("no metrics")
	}
	if s.Replicates < 0 {
		return fmt.Errorf("negative replicates %d", s.Replicates)
	}
	if s.Replicates > maxReplicates {
		return fmt.Errorf("replicates %d exceed the maximum of %d", s.Replicates, maxReplicates)
	}
	// Compare before multiplying, so the product cannot overflow.
	runs := max(s.Replicates, 1)
	for _, ax := range s.Axes {
		if len(ax.Values) > maxSweepRuns/runs {
			return fmt.Errorf("more than %d runs (points x replicates); split the sweep", maxSweepRuns)
		}
		runs *= len(ax.Values)
	}
	for _, m := range s.Metrics {
		if m == MetricWS {
			return fmt.Errorf("metric %q needs per-benchmark alone runs over workload mixes and is only available to table specs, not sweeps", MetricWS)
		}
		if _, err := lookupMetric(m); err != nil {
			return err
		}
	}
	return nil
}

// Points returns the cartesian product of the axes in row-major order
// (first axis slowest), as index vectors into Axes[i].Values.
func (s SweepSpec) Points() [][]int {
	total := 1
	for _, ax := range s.Axes {
		total *= len(ax.Values)
	}
	points := make([][]int, 0, total)
	idx := make([]int, len(s.Axes))
	for {
		points = append(points, append([]int(nil), idx...))
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return points
		}
	}
}

func (s SweepSpec) pointLabel(idx []int) string {
	var b bytes.Buffer
	for i, v := range idx {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%s=%s", s.Axes[i].Name, s.Axes[i].Values[v].Label)
	}
	return b.String()
}

// grid compiles the sweep against its base config: one row per
// cartesian point, labelled by its axis values, with the validated point
// config under one column per metric. The sweep's runner has no mixes,
// so each row samples its point config itself.
func (s SweepSpec) grid() (config.Config, *grid, error) {
	base, err := config.ParsePreset(s.Scale)
	if err != nil {
		return base, nil, err
	}
	var patches patchMemo // each axis value is one literal for many points
	if base, err = patches.apply(base, s.Base); err != nil {
		return base, nil, fmt.Errorf("exp: sweep base: %w", err)
	}
	g := &grid{name: s.Name, reps: max(s.Replicates, 1)}
	for _, ax := range s.Axes {
		g.headers = append(g.headers, ax.Name)
	}
	for _, m := range s.Metrics {
		g.cols = append(g.cols, ColSpec{Header: m, Metric: m})
	}
	for _, idx := range s.Points() {
		row := gridRow{labels: make([]string, len(idx)), cells: make([]cellCfg, len(g.cols)), hi: 1}
		sets := make([]json.RawMessage, len(idx))
		for i, v := range idx {
			row.labels[i], sets[i] = s.Axes[i].Values[v].Label, s.Axes[i].Values[v].Set
		}
		cfg, err := patches.apply(base, sets...)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return base, nil, fmt.Errorf("exp: sweep point %s: %w", s.pointLabel(idx), err)
		}
		for j := range row.cells {
			row.cells[j].cfg = cfg
		}
		g.cells = append(g.cells, row.cells)
		g.rows = append(g.rows, row)
	}
	return base, g, nil
}

// SweepOpts bundles the execution knobs of a sweep.
type SweepOpts struct {
	// Workers bounds concurrent simulations; must be >= 1.
	Workers int
	// Cache is the optional persistent result cache.
	Cache *rescache.Cache
	// Progress observes per-run completion events (nil disables).
	Progress ProgressFunc
	// KeepGoing runs every point even after failures and reports them
	// all joined in cartesian order; false stops on the first failure.
	// Either way a partly-failing sweep is resumable: completed points
	// are in the cache, so a rerun recomputes only what is missing.
	KeepGoing bool
	// RunTimeout arms the per-run watchdog; <= 0 (the default) disables.
	RunTimeout time.Duration
	// Replicates, when nonzero, overrides the spec's replicate count
	// (the -seeds flag); 0 defers to spec.Replicates (default 1).
	Replicates int
}

// RunSweep evaluates the spec: it compiles the cartesian product into a
// grid of one row per point and one column per metric, computes every
// run (bounded-parallel over opts.Workers simulations, consulting
// opts.Cache when one is set), and renders it through the renderer
// every table uses. Rows commit in cartesian order regardless of which
// worker finished first, so the rendered table — text, CSV, or JSON —
// is byte-identical at every worker count. A metric with no sample in
// some replicate renders "-".
//
// On failure the returned runner is non-nil whenever the sweep got as
// far as planning its runs (so callers can still inspect cache
// statistics and CacheErr); the table is nil — a partial table would
// invite consuming half a sweep as if it were the sweep.
func RunSweep(spec SweepSpec, opts SweepOpts) (*stats.Table, *Runner, error) {
	if opts.Replicates != 0 {
		spec.Replicates = opts.Replicates
	}
	// LoadSweep validates too, but specs can also be built in Go and
	// handed straight here, and the override above is checked only here.
	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("exp: sweep %s: %w", spec.Name, err)
	}
	if err := ValidateWorkers(opts.Workers); err != nil {
		return nil, nil, err
	}
	base, g, err := spec.grid()
	if err != nil {
		return nil, nil, err
	}
	r := NewRunner(base, nil, opts.Workers)
	r.SetCache(opts.Cache)
	r.SetProgress(opts.Progress)
	r.SetKeepGoing(opts.KeepGoing)
	r.SetRunTimeout(opts.RunTimeout)
	tbl, err := r.evaluate(g)
	if err != nil {
		return nil, r, err
	}
	return tbl, r, nil
}
