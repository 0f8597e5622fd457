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
	// runs (replicate k patches Seed to config.ReplicateSeed of the
	// point's seed) and renders each metric cell as mean ±CI95. 0/1 keep
	// the single-run output bit-identical to the unreplicated engine.
	// SweepOpts.Replicates, when positive, overrides this.
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

// pointConfig resolves the config of one cartesian point.
func (s SweepSpec) pointConfig(base config.Config, idx []int) (config.Config, error) {
	patches := make([]json.RawMessage, 0, len(idx))
	for i, v := range idx {
		patches = append(patches, s.Axes[i].Values[v].Set)
	}
	cfg, err := base.Patch(patches...)
	if err != nil {
		return cfg, fmt.Errorf("exp: sweep point %s: %w", s.pointLabel(idx), err)
	}
	return cfg, nil
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

// resolve returns the spec's base config and the validated configs of
// the given points: cfgs[i][k] is replicate k of points[i]. Replicate 0
// is the point config itself, later replicates are ordinary Seed patches
// — so they content-address, cache, and deduplicate like any other run.
func (s SweepSpec) resolve(points [][]int, reps int) (config.Config, [][]config.Config, error) {
	base, err := config.ParsePreset(s.Scale)
	if err != nil {
		return base, nil, err
	}
	base, err = base.Patch(s.Base)
	if err != nil {
		return base, nil, fmt.Errorf("exp: sweep base: %w", err)
	}
	cfgs := make([][]config.Config, len(points))
	for i, idx := range points {
		cfgs[i] = make([]config.Config, reps)
		if cfgs[i][0], err = s.pointConfig(base, idx); err != nil {
			return base, nil, err
		}
		if err := cfgs[i][0].Validate(); err != nil {
			return base, nil, fmt.Errorf("exp: sweep point %s: %w", s.pointLabel(idx), err)
		}
		// Points run in parallel, so a shared RecordPath would have
		// every run truncating (and, on failure, deleting) the same
		// trace file mid-write.
		if cfgs[i][0].RecordPath != "" {
			return base, nil, fmt.Errorf("exp: sweep point %s: RecordPath is not supported in sweeps (parallel points would overwrite one trace file)", s.pointLabel(idx))
		}
		for k := 1; k < reps; k++ {
			cfgs[i][k], err = cfgs[i][0].Patch(config.SeedPatch(config.ReplicateSeed(cfgs[i][0].Seed, k)))
			if err != nil {
				return base, nil, fmt.Errorf("exp: sweep point %s replicate %d: %w", s.pointLabel(idx), k, err)
			}
		}
	}
	return base, cfgs, nil
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
	// Replicates, when > 0, overrides the spec's replicate count (the
	// -seeds flag); 0 defers to spec.Replicates (default 1).
	Replicates int
}

// RunSweep evaluates the spec: resolve the base config, enumerate the
// cartesian product, compute every point (bounded-parallel over
// opts.Workers simulations, consulting opts.Cache when one is set), and
// render one row per point with the requested metric columns. Rows
// commit in cartesian order regardless of which worker finished first,
// so the rendered table — text, CSV, or JSON — is byte-identical at
// every worker count. Runs with no sample for a metric render "-".
//
// On failure the returned runner is non-nil whenever the sweep got as
// far as running (so callers can still inspect cache statistics and
// CacheErr); the table is nil — a partial table would invite consuming
// half a sweep as if it were the sweep.
func RunSweep(spec SweepSpec, opts SweepOpts) (*stats.Table, *Runner, error) {
	// LoadSweep validates too, but specs can also be built in Go and
	// handed straight here; a structural error must not surface as a
	// panic after the simulations already ran.
	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("exp: sweep %s: %w", spec.Name, err)
	}
	if err := ValidateWorkers(opts.Workers); err != nil {
		return nil, nil, err
	}
	reps := opts.Replicates
	if reps == 0 {
		reps = spec.Replicates
	}
	if reps < 1 {
		reps = 1
	}
	points := spec.Points()
	base, cfgs, err := spec.resolve(points, reps)
	if err != nil {
		return nil, nil, err
	}
	need := make([]config.Config, 0, len(points)*reps)
	for _, c := range cfgs {
		need = append(need, c...)
	}

	r := NewRunner(base, nil, opts.Workers)
	if opts.Cache != nil {
		r.SetCache(opts.Cache)
	}
	r.SetProgress(opts.Progress)
	r.SetKeepGoing(opts.KeepGoing)
	r.SetRunTimeout(opts.RunTimeout)
	if err := r.Ensure(need); err != nil {
		return nil, r, err
	}

	header := make([]string, 0, len(spec.Axes)+len(spec.Metrics))
	for _, ax := range spec.Axes {
		header = append(header, ax.Name)
	}
	header = append(header, spec.Metrics...)
	tbl := stats.NewTable(header...)
	vals := make([]float64, 0, reps)
	for i, idx := range points {
		row := make([]interface{}, 0, len(header))
		for ai, v := range idx {
			row = append(row, spec.Axes[ai].Values[v].Label)
		}
		for _, m := range spec.Metrics {
			f, _ := lookupMetric(m)
			vals = vals[:0]
			ok := true
			for k := 0; ok && k < reps; k++ {
				v, vok := f(r.result(cfgs[i][k]))
				if !vok {
					ok = false
					break
				}
				vals = append(vals, v)
			}
			switch {
			case !ok:
				// A metric with no sample in any replicate renders "-":
				// a partially sampled mean would not be comparable
				// across rows.
				row = append(row, "-")
			case reps == 1:
				row = append(row, vals[0])
			default:
				row = append(row, stats.Summarize(vals))
			}
		}
		tbl.AddRowf(row...)
	}
	return tbl, r, nil
}
