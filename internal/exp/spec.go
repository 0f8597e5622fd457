package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"dcasim/internal/config"
	"dcasim/internal/dcache"
	"dcasim/internal/stats"
)

// TableSpec declares one evaluation table as data: a grid of config
// variants (row patch × column patch on top of the base config), a
// metric per column, and how per-mix samples aggregate into a cell.
// Every figure of the paper is an instance (see figures.go), so adding a
// figure is writing a spec, not plumbing a new driver. Patches are raw
// JSON objects deep-merged onto the base config (config.Config.Patch),
// which also makes specs fully serializable.
type TableSpec struct {
	Name    string          `json:"name"`
	Title   string          `json:"title"`
	Headers []string        `json:"headers"`          // leading label column headers
	Patch   json.RawMessage `json:"patch,omitempty"`  // applied to every cell of the table
	PerMix  bool            `json:"perMix,omitempty"` // one row per mix plus a gmean summary (Figs. 10–11)
	Rows    []RowSpec       `json:"rows"`
	Cols    []ColSpec       `json:"cols"`

	// Replicates, when > 1, fans every cell into that many seed-derived
	// runs (config.ReplicateSeed) and renders mean ±CI95 cells. 0 defers
	// to the runner's SetReplicates default; 0/1 both keep the
	// single-run output bit-identical to the unreplicated engine.
	Replicates int `json:"replicates,omitempty"`
}

// RowSpec is one table row: its label cells and the config patch shared
// by every cell of the row. Under PerMix the single row spec provides
// the patch while the rows themselves come from the runner's mixes.
type RowSpec struct {
	Labels []string        `json:"labels,omitempty"`
	Patch  json.RawMessage `json:"patch,omitempty"`
}

// ColSpec is one data column.
type ColSpec struct {
	Header string          `json:"header"`
	Patch  json.RawMessage `json:"patch,omitempty"`
	Metric string          `json:"metric"` // registry name, or MetricWS

	// Agg folds the per-mix samples into the cell: "geomean" or "mean"
	// (the default). A cell with no sample renders "-".
	Agg string `json:"agg,omitempty"`

	// Baseline, when set, is a further patch selecting the variant each
	// per-mix sample is normalized against before aggregation; Op picks
	// the normalization: "ratio" (default) or "pctImprove"
	// (100*(baseline-v)/baseline, the paper's latency-improvement form).
	Baseline json.RawMessage `json:"baseline,omitempty"`
	Op       string          `json:"op,omitempty"`

	// Div derives the cell from two earlier columns of the same row
	// (numerator/denominator by header) instead of from runs.
	Div *[2]string `json:"div,omitempty"`

	// Format renders the aggregated value: "" uses the table default
	// (%.3f), "pct0" renders 100*v as a whole-number percentage.
	Format string `json:"format,omitempty"`
}

// validate rejects a malformed column before any simulation runs: a
// typoed aggregation or a dangling Div reference must not cost a full
// sweep before failing at render time. earlier holds the headers of
// the columns to this one's left (Div may only reference those).
func (c ColSpec) validate(earlier map[string]bool) error {
	if c.Div != nil {
		for _, ref := range *c.Div {
			if !earlier[ref] {
				return fmt.Errorf("exp: column %q: div references unknown column %q", c.Header, ref)
			}
		}
		// A Div cell is derived purely from two earlier columns, so the
		// run-driven fields are dead weight on it: a typoed agg/op/
		// baseline or a stray metric would be silently ignored — the
		// exact failure mode validate exists to prevent. Reject them.
		switch {
		case c.Metric != "":
			return fmt.Errorf("exp: column %q: div columns take no metric (got %q)", c.Header, c.Metric)
		case c.Agg != "":
			return fmt.Errorf("exp: column %q: div columns take no aggregation (got %q)", c.Header, c.Agg)
		case c.Op != "":
			return fmt.Errorf("exp: column %q: div columns take no op (got %q)", c.Header, c.Op)
		case c.Baseline != nil:
			return fmt.Errorf("exp: column %q: div columns take no baseline", c.Header)
		case len(c.Patch) != 0:
			return fmt.Errorf("exp: column %q: div columns take no patch", c.Header)
		}
	} else {
		if c.Metric != MetricWS {
			if _, err := lookupMetric(c.Metric); err != nil {
				return err
			}
		}
		switch c.Agg {
		case "geomean", "mean", "":
		default:
			return fmt.Errorf("exp: column %q: unknown aggregation %q", c.Header, c.Agg)
		}
		switch c.Op {
		case "ratio", "pctImprove", "":
		default:
			return fmt.Errorf("exp: column %q: unknown op %q", c.Header, c.Op)
		}
	}
	switch c.Format {
	case "", "pct0":
		return nil
	}
	return fmt.Errorf("exp: column %q: unknown format %q", c.Header, c.Format)
}

// aggregate folds samples per the column's Agg, which validate has
// checked. A degenerate sample set (a non-positive value under geomean)
// is reported as an error: it reaches this at render time, after every
// simulation has completed, so panicking here would escape runIsolated
// and take down the process.
func (c ColSpec) aggregate(vals []float64) (float64, error) {
	if c.Agg != "geomean" {
		return stats.Mean(vals), nil
	}
	g, err := stats.GeoMean(vals)
	if err != nil {
		return 0, fmt.Errorf("exp: column %q: %w", c.Header, err)
	}
	return g, nil
}

// normalize applies the column's baseline op to one per-mix sample.
func (c ColSpec) normalize(v, base float64) float64 {
	if c.Op == "pctImprove" {
		return 100 * (base - v) / base
	}
	return v / base
}

// cell renders a column's per-replicate values per its format: the
// value itself at one replicate (bit-identical to the unreplicated
// engine), else a mean ±CI95 stats.Sample, which the table renders
// "mean ±CI" in text and splits into two CSV/JSON columns. pct0 renders
// 100*v as a whole-number percentage and folds a replicated cell into
// one string, so percentages stay one column in every format.
func (c ColSpec) cell(perRep []float64) interface{} {
	if len(perRep) == 1 {
		if c.Format == "pct0" {
			return fmt.Sprintf("%.0f%%", 100*perRep[0])
		}
		return perRep[0]
	}
	s := stats.Summarize(perRep)
	if c.Format == "pct0" {
		return fmt.Sprintf("%.0f%% ±%.0f%%", 100*s.Mean, 100*s.CI)
	}
	return s
}

// A grid is a table or sweep spec compiled against a runner: labelled
// rows of resolved cell configs under ColSpec columns. Table and
// RunSweep both build one and hand it to evaluate, so every figure and
// every sweep goes through one planner (plan) and one renderer
// (render).
type grid struct {
	name    string
	headers []string // label column headers
	cols    []ColSpec
	cells   [][]cellCfg // per row spec or sweep point, one per column
	rows    []gridRow
	reps    int // seeded replicates of every run

	// Set by plan: the need list, the content hash of each entry, and
	// the need-list index of replicate 0 of each alone run.
	need   []config.Config
	hashes []string
	alone  map[aloneKey]int
}

// cellCfg is the resolved config of one cell and, when its column is
// normalized, of its baseline. plan records the need-list indices of
// their runs: sample i at replicate k is runs[i*reps+k] (bls for the
// baseline). Div cells stay zero.
type cellCfg struct {
	cfg, bl   config.Config
	runs, bls []int
}

// aloneKey names the alone run of one benchmark under one organization.
type aloneKey struct {
	org   dcache.Org
	bench string
}

// gridRow is one rendered row: its labels and the cells it reads, which
// it shares with grid.cells. It reads samples lo..hi-1 of each cell: one
// per runner mix, or sample 0 alone, the cell config itself, when the
// runner has no mixes, as for sweep rows. agg, when set, replaces every
// column's aggregation: a per-mix row holds one raw sample, which the
// mean keeps exactly, and the gmean row takes the geomean of every mix.
type gridRow struct {
	labels []string
	cells  []cellCfg
	lo, hi int
	agg    string
}

// Table evaluates a spec: it resolves the grid of cell configs,
// computes every run the grid reads (cells, baselines, the alone runs
// behind weighted speedups, and every seeded replicate of each) in
// parallel through the memo and persistent cache, and renders the
// table. With more than one replicate each cell aggregates per
// replicate exactly as the single-run engine would and then folds the
// per-replicate values into a mean ±CI95 Sample.
func (r *Runner) Table(spec TableSpec) (*stats.Table, error) {
	g, err := r.tableGrid(spec)
	if err != nil {
		return nil, err
	}
	return r.evaluate(g)
}

// tableGrid compiles a table spec: one row per row spec, or under
// PerMix one row per mix plus a gmean row. Each row spec is patched
// once and each baseline from its cell config; patches apply in order,
// so this equals patching the base with every patch of the cell at
// once. Each distinct patch literal is parsed once per runner.
func (r *Runner) tableGrid(spec TableSpec) (*grid, error) {
	if spec.PerMix && len(spec.Rows) != 1 {
		return nil, fmt.Errorf("exp: %s: perMix wants exactly one row spec, got %d", spec.Name, len(spec.Rows))
	}
	if spec.Replicates < 0 {
		return nil, fmt.Errorf("exp: %s: negative replicates %d", spec.Name, spec.Replicates)
	}
	earlier := map[string]bool{}
	for _, col := range spec.Cols {
		if err := col.validate(earlier); err != nil {
			return nil, err
		}
		earlier[col.Header] = true
	}
	reps := spec.Replicates
	if reps == 0 {
		reps = r.replicates
	}
	g := &grid{name: spec.Name, headers: spec.Headers, cols: spec.Cols, reps: max(reps, 1)}
	samples := max(len(r.mixes), 1)
	for _, row := range spec.Rows {
		rowCfg, err := r.patches.apply(r.base, spec.Patch, row.Patch)
		if err != nil {
			return nil, fmt.Errorf("exp: %s row %v: %w", spec.Name, row.Labels, err)
		}
		cells := make([]cellCfg, len(spec.Cols))
		for j, col := range spec.Cols {
			if col.Div != nil {
				continue
			}
			c := &cells[j]
			if c.cfg, err = r.patches.apply(rowCfg, col.Patch); err == nil && col.Baseline != nil {
				c.bl, err = r.patches.apply(c.cfg, col.Baseline)
			}
			if err != nil {
				return nil, fmt.Errorf("exp: %s row %v col %q: %w", spec.Name, row.Labels, col.Header, err)
			}
		}
		g.cells = append(g.cells, cells)
		if !spec.PerMix {
			g.rows = append(g.rows, gridRow{labels: row.Labels, cells: cells, hi: samples})
			continue
		}
		for i, m := range r.mixes {
			label := fmt.Sprintf("%d(%s)", m.ID, m.Benchmarks[0])
			g.rows = append(g.rows, gridRow{labels: []string{label}, cells: cells, lo: i, hi: i + 1, agg: "mean"})
		}
		g.rows = append(g.rows, gridRow{labels: []string{"gmean"}, cells: cells, hi: samples, agg: "geomean"})
	}
	return g, nil
}

// patchMemo parses each distinct patch literal once
// (config.ParsePatch) and applies the parsed form: the figures patch
// from a few dozen literals hundreds of times. The zero value is ready.
type patchMemo struct {
	mu     sync.Mutex
	parsed map[string]config.ParsedPatch // by the literal's bytes
	parses int                           // literals parsed, for tests
}

// apply is config.Config.Patch through the memo: it parses every patch,
// then applies them in order.
func (m *patchMemo) apply(c config.Config, patches ...json.RawMessage) (config.Config, error) {
	var buf [4]config.ParsedPatch
	parsed := buf[:0]
	for _, p := range patches {
		if len(p) == 0 {
			continue
		}
		pp, err := m.parse(p)
		if err != nil {
			return config.Config{}, err
		}
		parsed = append(parsed, pp)
	}
	return c.Apply(parsed...)
}

// parse returns the parsed form of p, parsing it on first sight.
func (m *patchMemo) parse(p json.RawMessage) (config.ParsedPatch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pp, ok := m.parsed[string(p)]; ok {
		return pp, nil
	}
	pp, err := config.ParsePatch(p)
	if err != nil {
		return config.ParsedPatch{}, err
	}
	if m.parsed == nil {
		m.parsed = make(map[string]config.ParsedPatch)
	}
	m.parsed[string(p)] = pp
	m.parses++
	return pp, nil
}

// evaluate computes every run the grid reads and renders it.
func (r *Runner) evaluate(g *grid) (*stats.Table, error) {
	if err := r.plan(g); err != nil {
		return nil, err
	}
	if err := r.ensure(g.need, g.hashes); err != nil {
		return nil, err
	}
	return r.render(g)
}

// plan lists every run the grid reads, in the order Ensure dispatches
// them: per cell, mix-major then replicate, each run before its
// baseline; then the alone runs behind weighted speedups, by sorted org
// name. Ensure's warm groups and its first reported failure follow this
// order, so nothing in it may depend on map iteration. It hashes each
// entry once and records where each cell's runs and each alone run sit
// in the list, so nothing after it rebuilds or re-hashes a config.
func (r *Runner) plan(g *grid) error {
	if g.reps > maxReplicates {
		return fmt.Errorf("exp: %s: %d replicates exceed the maximum of %d", g.name, g.reps, maxReplicates)
	}
	var need []config.Config
	var alone []aloneKey
	seen := map[aloneKey]bool{}
	add := func(run config.Config, ws bool) int {
		need = append(need, run)
		if ws {
			for _, b := range run.Benchmarks {
				if key := (aloneKey{run.Org, b}); !seen[key] {
					seen[key] = true
					alone = append(alone, key)
				}
			}
		}
		return len(need) - 1
	}
	samples := max(len(r.mixes), 1)
	for _, cells := range g.cells {
		for j, col := range g.cols {
			if col.Div != nil {
				continue
			}
			ws := col.Metric == MetricWS
			c := &cells[j]
			c.runs = make([]int, samples*g.reps)
			if col.Baseline != nil {
				c.bls = make([]int, samples*g.reps)
			}
			for i := 0; i < samples; i++ {
				for k := 0; k < g.reps; k++ {
					c.runs[i*g.reps+k] = add(r.runCfg(c.cfg, i, k), ws)
					if col.Baseline != nil {
						c.bls[i*g.reps+k] = add(r.runCfg(c.bl, i, k), ws)
					}
				}
			}
		}
	}
	sort.SliceStable(alone, func(a, b int) bool { return alone[a].org.String() < alone[b].org.String() })
	g.alone = make(map[aloneKey]int, len(alone))
	for _, key := range alone {
		g.alone[key] = len(need)
		cfg := r.aloneConfig(key.bench, key.org)
		for k := 0; k < g.reps; k++ {
			need = append(need, replicateCfg(cfg, k))
		}
	}
	g.need, g.hashes = need, make([]string, len(need))
	for i, run := range need {
		var err error
		if g.hashes[i], err = run.TryHash(); err != nil {
			return fmt.Errorf("exp: %s: %w", g.name, err)
		}
	}
	return nil
}

// runCfg is the run behind sample i of a cell config at replicate k:
// the config under the runner's mix i, or the config itself without
// mixes.
func (r *Runner) runCfg(cfg config.Config, i, k int) config.Config {
	if len(r.mixes) > 0 {
		cfg = mixConfig(cfg, r.base, r.mixes[i])
	}
	return replicateCfg(cfg, k)
}

// render reads the grid's values from the memo (plan's runs must all be
// there) into a table. A value with no sample renders "-", as does a
// Div cell over such a value or a zero denominator: a partly sampled
// replicate mean, NaN or Inf would pass off as data.
func (r *Runner) render(g *grid) (*stats.Table, error) {
	header := append([]string{}, g.headers...)
	for _, col := range g.cols {
		header = append(header, col.Header)
	}
	tbl := stats.NewTable(header...)
	for _, row := range g.rows {
		out := make([]interface{}, 0, len(g.headers)+len(g.cols))
		for _, l := range row.labels {
			out = append(out, l)
		}
		// Per-replicate values by column header for Div references, nil
		// where a column has none. Only ever indexed, never ranged.
		vals := map[string][]float64{}
		for j, col := range g.cols {
			var perRep []float64
			if col.Div != nil {
				perRep = divide(vals[col.Div[0]], vals[col.Div[1]])
			} else {
				var err error
				if perRep, err = r.values(g, row, j); err != nil {
					return nil, err
				}
			}
			vals[col.Header] = perRep
			if perRep == nil {
				out = append(out, "-")
			} else {
				out = append(out, col.cell(perRep))
			}
		}
		tbl.AddRowf(out...)
	}
	return tbl, nil
}

// values aggregates cell j of a row at every replicate; nil when some
// replicate has no sample.
func (r *Runner) values(g *grid, row gridRow, j int) ([]float64, error) {
	col := g.cols[j]
	if row.agg != "" {
		col.Agg = row.agg
	}
	perRep := make([]float64, g.reps)
	for k := range perRep {
		vals, err := r.samples(g, row, col, row.cells[j], k)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, nil
		}
		if perRep[k], err = col.aggregate(vals); err != nil {
			return nil, fmt.Errorf("exp: %s row %v: %w", g.name, row.labels, err)
		}
	}
	return perRep, nil
}

// samples collects one cell's normalized samples at replicate k, one
// per sample index of the row. A sample whose baseline has no positive
// value is skipped, as Fig. 18's zero-tag-access guard needs.
func (r *Runner) samples(g *grid, row gridRow, col ColSpec, c cellCfg, k int) ([]float64, error) {
	var vals []float64
	for i := row.lo; i < row.hi; i++ {
		v, ok, err := r.sample(g, col, c.runs[i*g.reps+k], k)
		if err != nil {
			return nil, err
		}
		if col.Baseline != nil {
			base, bok, err := r.sample(g, col, c.bls[i*g.reps+k], k)
			if err != nil {
				return nil, err
			}
			if !bok || base <= 0 {
				continue
			}
			v = col.normalize(v, base)
		}
		if ok {
			vals = append(vals, v)
		}
	}
	return vals, nil
}

// sample reads a column's metric from the memoized run at need-list
// index run, of replicate k.
func (r *Runner) sample(g *grid, col ColSpec, run, k int) (float64, bool, error) {
	if col.Metric == MetricWS {
		ws, err := r.weightedSpeedup(g, run, k)
		return ws, true, err
	}
	v, ok := metrics[col.Metric](r.result(g.hashes[run]))
	return v, ok, nil
}

// weightedSpeedup computes the weighted speedup of the memoized run at
// need-list index run over the memoized alone IPCs of its benchmarks at
// replicate k. The shared and alone runs use the same replicate index,
// so each replicate is an internally consistent speedup measurement.
func (r *Runner) weightedSpeedup(g *grid, run, k int) (float64, error) {
	cfg := g.need[run]
	alone := make([]float64, len(cfg.Benchmarks))
	for i, b := range cfg.Benchmarks {
		alone[i] = r.result(g.hashes[g.alone[aloneKey{cfg.Org, b}]+k]).IPC[0]
	}
	ws, err := stats.WeightedSpeedup(r.result(g.hashes[run]).IPC, alone)
	if err != nil {
		return 0, fmt.Errorf("exp: weighted speedup (%v/%v %v seed %d): %w",
			cfg.Design, cfg.Org, cfg.Benchmarks, cfg.Seed, err)
	}
	return ws, nil
}

// divide divides two columns' per-replicate values; nil when either has
// none or a denominator is zero.
func divide(num, den []float64) []float64 {
	if num == nil || den == nil {
		return nil
	}
	out := make([]float64, len(num))
	for k := range num {
		if den[k] == 0 {
			return nil
		}
		out[k] = num[k] / den[k]
	}
	return out
}

// FigureNames lists the registered table specs in presentation order.
func FigureNames() []string {
	names := make([]string, len(Figures))
	for i, s := range Figures {
		names[i] = s.Name
	}
	return names
}

// Figure evaluates a registered spec by name.
func (r *Runner) Figure(name string) (*stats.Table, error) {
	for _, s := range Figures {
		if s.Name == name {
			return r.Table(s)
		}
	}
	return nil, fmt.Errorf("exp: unknown figure %q (have %v)", name, FigureNames())
}
