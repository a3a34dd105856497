package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// TimeSeries is a cycle-indexed table of sampled metrics: one row per
// sample window, one column per series. The samplers (internal/noc) append
// a row every stride cycles; the exporters feed heat-map animation and the
// /timeseries introspection endpoint.
type TimeSeries struct {
	Columns []string
	Cycles  []int64
	Rows    [][]float64
}

// NewTimeSeries creates a series with the given column names.
func NewTimeSeries(columns ...string) *TimeSeries {
	return &TimeSeries{Columns: columns}
}

// Append adds one sample row. The row is copied; len(row) must equal the
// column count. Cycles must be non-decreasing: a decreasing cycle panics
// (it would corrupt the window index), and a sample landing exactly on the
// previous sample's cycle — a window edge — deterministically replaces
// that row rather than producing two rows for one window.
func (ts *TimeSeries) Append(cycle int64, row []float64) {
	if len(row) != len(ts.Columns) {
		panic(fmt.Sprintf("obs: timeseries row has %d values for %d columns", len(row), len(ts.Columns)))
	}
	if n := len(ts.Cycles); n > 0 {
		switch last := ts.Cycles[n-1]; {
		case cycle < last:
			panic(fmt.Sprintf("obs: timeseries cycle %d appended after %d", cycle, last))
		case cycle == last:
			ts.Rows[n-1] = append(ts.Rows[n-1][:0], row...)
			return
		}
	}
	ts.Cycles = append(ts.Cycles, cycle)
	ts.Rows = append(ts.Rows, append([]float64(nil), row...))
}

// Len returns the number of sample rows.
func (ts *TimeSeries) Len() int { return len(ts.Rows) }

// timeSeriesJSON is the stable wire form of a TimeSeries.
type timeSeriesJSON struct {
	Columns []string    `json:"columns"`
	Cycles  []int64     `json:"cycles"`
	Rows    [][]float64 `json:"rows"`
}

// WriteJSON renders {"columns":[...],"cycles":[...],"rows":[[...]]}.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(timeSeriesJSON{
		Columns: ts.Columns,
		Cycles:  ts.Cycles,
		Rows:    ts.Rows,
	})
}

// WriteCSV renders the table with a "cycle" first column and one header
// row.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"cycle"}, ts.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i, row := range ts.Rows {
		rec[0] = fmt.Sprintf("%d", ts.Cycles[i])
		for j, v := range row {
			rec[j+1] = fmt.Sprintf("%g", v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
