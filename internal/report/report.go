// Package report defines the machine-readable experiment report schema
// shared by the gpsbench CLI (-json) and the gpsd service result endpoint,
// so both emit byte-compatible JSON for the same run.
package report

import (
	"encoding/json"
	"io"
	"os"

	"gps/internal/experiments"
)

// Section records the wall clock one figure/table/study consumed, plus the
// single slowest cell inside it — the tail that bounds the section's latency
// at any worker count.
type Section struct {
	Name           string  `json:"name"`
	Seconds        float64 `json:"seconds"`
	MaxCellSeconds float64 `json:"max_cell_seconds,omitempty"`
	SlowestCell    string  `json:"slowest_cell,omitempty"`
	// Cell-duration distribution (exact order statistics over every
	// completed cell): how heavy the section's tail is relative to its
	// typical cell. The perf regression gate reads these.
	CellCount      int     `json:"cell_count,omitempty"`
	P50CellSeconds float64 `json:"p50_cell_seconds,omitempty"`
	P99CellSeconds float64 `json:"p99_cell_seconds,omitempty"`
}

// Table is one rendered table or figure, plus any derived claim lines.
type Table struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// Report is the machine-readable summary of an experiment run: the Section
// 7.1 headline claims when Figure 8 ran, per-section wall clock, rendered
// tables, and the memoization counters of the runner that executed it.
type Report struct {
	// Section 7.1 headline claims, populated when Figure 8 runs.
	GPSMeanX       float64 `json:"gps_mean_x,omitempty"`
	OpportunityPct float64 `json:"opportunity_pct,omitempty"`
	VsNextBestX    float64 `json:"vs_next_best_x,omitempty"`

	ParallelWorkers int                    `json:"parallel_workers"`
	Shards          int                    `json:"shards,omitempty"` // always 1; see experiments.Shards
	TotalSeconds    float64                `json:"total_seconds"`
	Sections        []Section              `json:"sections"`
	Tables          []Table                `json:"tables,omitempty"`
	Cache           experiments.CacheStats `json:"cache"`
}

// AddTable appends a rendered table under the given section name.
func (r *Report) AddTable(name, text string) {
	r.Tables = append(r.Tables, Table{Name: name, Text: text})
}

// Load reads and parses a report file written by Encode.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Encode writes the report as indented JSON followed by a newline — the
// exact byte format of gpsbench -json and the gpsd result endpoint.
func (r *Report) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
