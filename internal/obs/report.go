package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ReportSchema identifies the run-report JSON layout. Bump the suffix
// on incompatible changes; the golden test pins the current layout.
const ReportSchema = "compoundthreat/run-report/v2"

// Report is the machine-readable snapshot of a recorder: counters,
// histograms (phase wall times among them, as "*_ns" histograms), and
// any structured results the run attached (e.g. per-figure state
// tallies).
type Report struct {
	Schema    string                `json:"schema"`
	Command   string                `json:"command,omitempty"`
	Args      []string              `json:"args,omitempty"`
	StartedAt time.Time             `json:"started_at"`
	WallNS    int64                 `json:"wall_ns"`
	Counters  map[string]int64      `json:"counters"`
	Histogram map[string]HistReport `json:"histograms"`
	// Gauges is present only when the run resolved at least one gauge,
	// so runs without gauges keep rendering the exact golden layout.
	Gauges  map[string]GaugeReport `json:"gauges,omitempty"`
	Dedup   *DedupReport           `json:"dedup,omitempty"`
	Results map[string]any         `json:"results,omitempty"`
}

// GaugeReport is one gauge rendered for the report: the level at
// snapshot time and the high-water mark over the run.
type GaugeReport struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// DedupReport summarizes failure-matrix row deduplication for the
// run: how many realization rows went in, how many distinct patterns
// came out, their ratio (distinct/input; 1.0 = incompressible), and
// the wall time spent compressing. Present only when the run
// compressed at least one matrix (the engine.dedup_* counters were
// recorded). The underlying counters also appear verbatim in
// Counters; this block is the derived, human-oriented view.
type DedupReport struct {
	InputRows      int64   `json:"input_rows"`
	DistinctRows   int64   `json:"distinct_rows"`
	Ratio          float64 `json:"ratio"`
	CompressWallNS int64   `json:"compress_wall_ns"`
}

// HistReport is one histogram rendered for the report. Buckets lists
// only non-empty buckets.
type HistReport struct {
	Count   int64          `json:"count"`
	Sum     int64          `json:"sum"`
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Buckets []BucketReport `json:"buckets,omitempty"`
}

// BucketReport counts observations in [Lt/2, Lt) — power-of-two
// bounds — except the first bucket (Lt 1), which counts non-positive
// observations.
type BucketReport struct {
	Lt    int64 `json:"lt"`
	Count int64 `json:"count"`
}

// Report snapshots the recorder. Command and args annotate the run
// they came from. Safe to call while instruments are still recording;
// the snapshot is then merely approximate. Returns an empty skeleton
// report on a nil recorder.
func (r *Recorder) Report(command string, args []string) Report {
	rep := Report{
		Schema:    ReportSchema,
		Command:   command,
		Args:      args,
		Counters:  map[string]int64{},
		Histogram: map[string]HistReport{},
	}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep.StartedAt = r.start
	rep.WallNS = r.now().Sub(r.start).Nanoseconds()
	for name, c := range r.counters {
		rep.Counters[name] = c.n.Load()
	}
	if len(r.gauges) > 0 {
		rep.Gauges = make(map[string]GaugeReport, len(r.gauges))
		for name, g := range r.gauges {
			rep.Gauges[name] = GaugeReport{Value: g.Value(), High: g.High()}
		}
	}
	for name, h := range r.hists {
		hr := HistReport{
			Count: h.count.Load(),
			Sum:   h.sum.Load(),
			Min:   h.min.Load(),
			Max:   h.max.Load(),
		}
		if hr.Count == 0 {
			hr.Min, hr.Max = 0, 0
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hr.Buckets = append(hr.Buckets, BucketReport{Lt: int64(1) << uint(i), Count: n})
			}
		}
		rep.Histogram[name] = hr
	}
	if in := rep.Counters["engine.dedup_input_rows"]; in > 0 {
		rep.Dedup = &DedupReport{
			InputRows:      in,
			DistinctRows:   rep.Counters["engine.distinct_patterns"],
			Ratio:          float64(rep.Counters["engine.distinct_patterns"]) / float64(in),
			CompressWallNS: rep.Histogram["engine.compress_ns"].Sum,
		}
	}
	if len(r.results) > 0 {
		rep.Results = make(map[string]any, len(r.results))
		for k, v := range r.results {
			rep.Results[k] = v
		}
	}
	return rep
}

// WriteReport renders the report as indented JSON.
func (r *Recorder) WriteReport(w io.Writer, command string, args []string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Report(command, args))
}

// WriteReportFile writes the report to path, creating or truncating
// the file.
func (r *Recorder) WriteReportFile(path, command string, args []string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteReport(f, command, args); err != nil {
		f.Close()
		return fmt.Errorf("obs: write report: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}
