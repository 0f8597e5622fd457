// Package stats provides the evaluation arithmetic of the paper: weighted
// speedup over per-application alone IPCs (Eyerman & Eeckhout), geometric
// means for averaging across workloads, and small table-formatting
// helpers shared by the experiment drivers.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WeightedSpeedup returns sum_i shared[i]/alone[i], the multiprogrammed
// throughput metric used for every speedup figure in the paper. A length
// mismatch or a non-positive alone IPC is a data error, not a programming
// error — a degenerate result (e.g. a zero IPC under -keep-going)
// reaches this at table-render time, after every simulation has already
// completed — so it is reported as an error rather than a panic.
func WeightedSpeedup(shared, alone []float64) (float64, error) {
	if len(shared) != len(alone) {
		return 0, fmt.Errorf("stats: weighted speedup with %d shared vs %d alone IPCs", len(shared), len(alone))
	}
	ws := 0.0
	for i := range shared {
		if alone[i] <= 0 {
			return 0, fmt.Errorf("stats: non-positive alone IPC %v at %d", alone[i], i)
		}
		ws += shared[i] / alone[i]
	}
	return ws, nil
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice. A
// non-positive value has no geometric mean and is reported as an error
// (see WeightedSpeedup for why this must not panic).
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geometric mean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (Bessel-corrected,
// n-1 denominator), or 0 for fewer than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// tCrit95 holds the two-tailed Student-t critical values at 95%
// confidence for 1..30 degrees of freedom; tCritical steps down to the
// asymptotic 1.960 beyond that. A normal approximation would understate
// the interval badly at the replicate counts experiments actually use
// (N = 3..10, so df = 2..9 — where t is 1.2-2.2x the normal quantile).
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCritical(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	}
	return 1.960
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs under the Student-t distribution: t_{0.975,n-1} * s / sqrt(n).
// It returns 0 for fewer than two values — a point estimate has no
// interval.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return tCritical(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// Sample is a replicated measurement: the mean across N seeded replicate
// runs and the half-width of its 95% confidence interval. Table renders a
// Sample cell as "mean ±CI" in text and splits it into two columns
// (value, value ci95) in CSV and JSON output.
type Sample struct {
	Mean float64
	CI   float64
}

// Summarize folds replicate values into a Sample: their arithmetic mean
// and the CI95 half-width.
func Summarize(xs []float64) Sample {
	return Sample{Mean: Mean(xs), CI: CI95(xs)}
}

// String renders the sample as "mean ±ci" with the same precision plain
// float cells use.
func (s Sample) String() string {
	return fmt.Sprintf("%.3f ±%.3f", s.Mean, s.CI)
}

// Table accumulates rows for aligned text output of experiment results.
type Table struct {
	header []string
	rows   [][]string
	// samps records, per row, which cells were added as Sample values
	// (column index -> the sample), so CSV/JSON output can split them
	// into separate mean and ci95 columns. nil for rows without samples.
	samps []map[int]Sample
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
	t.samps = append(t.samps, nil)
}

// AddRowf appends a row where each value is formatted with %v for
// strings, %.3f for floats, and "mean ±ci" for Sample cells.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	var samps map[int]Sample
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case Sample:
			row[i] = v.String()
			if samps == nil {
				samps = make(map[int]Sample)
			}
			samps[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
	t.samps = append(t.samps, samps)
}

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted cell strings, row-major. The slice is the
// table's backing store; callers must not mutate it.
func (t *Table) Rows() [][]string { return t.rows }

// sampleCols reports which header columns hold at least one Sample cell;
// the second return is true when any do. Columns are scanned by index so
// the result is deterministic.
func (t *Table) sampleCols() ([]bool, bool) {
	cols := make([]bool, len(t.header))
	any := false
	for i := range t.rows {
		for j := range cols {
			if _, ok := t.samps[i][j]; ok {
				cols[j] = true
				any = true
			}
		}
	}
	return cols, any
}

// expandHeader widens the header for CSV/JSON output: every column that
// holds Sample cells gains a trailing "<name> ci95" column.
func (t *Table) expandHeader(cols []bool) []string {
	out := make([]string, 0, len(t.header))
	for j, h := range t.header {
		out = append(out, h)
		if cols[j] {
			out = append(out, h+" ci95")
		}
	}
	return out
}

// expandRow widens one row to match expandHeader: Sample cells split
// into mean and ci95 values; plain cells in a sample-bearing column get
// an empty ci95 cell.
func (t *Table) expandRow(cols []bool, i int) []string {
	row := t.rows[i]
	out := make([]string, 0, len(row))
	for j, c := range row {
		if s, ok := t.samps[i][j]; ok {
			out = append(out, fmt.Sprintf("%.3f", s.Mean), fmt.Sprintf("%.3f", s.CI))
			continue
		}
		out = append(out, c)
		if j < len(cols) && cols[j] {
			out = append(out, "")
		}
	}
	return out
}

// MarshalJSON encodes the table as {"header": [...], "rows": [[...]]},
// the machine-readable form behind the -format json output modes. Tables
// holding Sample cells split each sampled column into mean and ci95
// columns; without samples the encoding is byte-identical to the
// single-run form.
func (t *Table) MarshalJSON() ([]byte, error) {
	header, rows := t.header, t.rows
	if cols, any := t.sampleCols(); any {
		header = t.expandHeader(cols)
		rows = make([][]string, len(t.rows))
		for i := range t.rows {
			rows[i] = t.expandRow(cols, i)
		}
	}
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{header, rows})
}

// CheckFormat validates a -format flag value up front, so a typo fails
// before any simulation work rather than at the first rendered table.
func CheckFormat(format string) error {
	switch format {
	case "text", "csv", "json":
		return nil
	}
	return fmt.Errorf("unknown format %q (want text, csv, or json)", format)
}

// Write renders the table in the given format ("text", "csv", "json") —
// the one implementation behind every command's -format flag.
func (t *Table) Write(w io.Writer, format string) error {
	switch format {
	case "text":
		_, err := io.WriteString(w, t.String())
		return err
	case "csv":
		return t.WriteCSV(w)
	case "json":
		data, err := t.MarshalJSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", data)
		return err
	}
	return CheckFormat(format)
}

// WriteCSV emits the table as RFC 4180 CSV, header row first. Sampled
// columns split into mean and ci95 columns exactly as in MarshalJSON.
func (t *Table) WriteCSV(w io.Writer) error {
	cols, any := t.sampleCols()
	cw := csv.NewWriter(w)
	header := t.header
	if any {
		header = t.expandHeader(cols)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, row := range t.rows {
		if any {
			row = t.expandRow(cols, i)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
