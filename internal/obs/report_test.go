package obs

import (
	"bytes"
	"testing"
	"time"
)

// fakeClock yields deterministic timestamps advancing by a fixed step
// per reading.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	t := c.t
	c.t = c.t.Add(c.step)
	return t
}

// TestReportGolden pins the run-report JSON schema byte for byte: a
// recorder with an injected clock and a known set of instruments must
// render exactly this document. Update the golden text deliberately
// when the schema changes, and bump ReportSchema.
func TestReportGolden(t *testing.T) {
	clock := &fakeClock{
		t:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		step: 250 * time.Millisecond,
	}
	r := newRecorder(clock.now)

	r.Counter("engine.memo_hits").Add(995)
	r.Counter("engine.memo_misses").Add(5)
	sp := r.StartSpan("analysis.run_configs_ns") // reads clock twice: start + end
	sp.End()
	h := r.Histogram("engine.tasks_per_worker")
	h.Observe(3)
	h.Observe(5)
	h.Observe(900)
	r.Put("figures", []map[string]any{
		{"figure": 9, "config": "6+6+6", "states": map[string]int{"green": 905, "red": 95}},
	})

	var buf bytes.Buffer
	if err := r.WriteReport(&buf, "compoundsim", []string{"-fig", "9"}); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "schema": "compoundthreat/run-report/v2",
  "command": "compoundsim",
  "args": [
    "-fig",
    "9"
  ],
  "started_at": "2026-01-02T03:04:05Z",
  "wall_ns": 750000000,
  "counters": {
    "engine.memo_hits": 995,
    "engine.memo_misses": 5
  },
  "histograms": {
    "analysis.run_configs_ns": {
      "count": 1,
      "sum": 250000000,
      "min": 250000000,
      "max": 250000000,
      "buckets": [
        {
          "lt": 268435456,
          "count": 1
        }
      ]
    },
    "engine.tasks_per_worker": {
      "count": 3,
      "sum": 908,
      "min": 3,
      "max": 900,
      "buckets": [
        {
          "lt": 4,
          "count": 1
        },
        {
          "lt": 8,
          "count": 1
        },
        {
          "lt": 1024,
          "count": 1
        }
      ]
    }
  },
  "results": {
    "figures": [
      {
        "config": "6+6+6",
        "figure": 9,
        "states": {
          "green": 905,
          "red": 95
        }
      }
    ]
  }
}
`
	if got := buf.String(); got != golden {
		t.Fatalf("run report drifted from golden schema.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestReportDedupBlock: a run that recorded the engine dedup counters
// gets the derived dedup block — input rows, distinct rows, their
// ratio, and the compression phase's wall time — while runs without
// them omit it (as the golden test proves).
func TestReportDedupBlock(t *testing.T) {
	clock := &fakeClock{
		t:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		step: time.Millisecond,
	}
	r := newRecorder(clock.now)
	r.Counter("engine.dedup_input_rows").Add(1000)
	r.Counter("engine.distinct_patterns").Add(40)
	r.StartSpan("engine.compress_ns").End() // one clock step = 1ms
	rep := r.Report("compoundsim", nil)
	d := rep.Dedup
	if d == nil {
		t.Fatal("dedup block missing")
	}
	if d.InputRows != 1000 || d.DistinctRows != 40 {
		t.Errorf("dedup block = %+v, want 1000 input / 40 distinct", d)
	}
	if d.Ratio != 0.04 {
		t.Errorf("ratio = %v, want 0.04", d.Ratio)
	}
	if d.CompressWallNS != time.Millisecond.Nanoseconds() {
		t.Errorf("compress_wall_ns = %d, want %d", d.CompressWallNS, time.Millisecond.Nanoseconds())
	}
}

// TestReportEmptyHistogram checks that a resolved-but-never-observed
// histogram reports zero min/max instead of the MaxInt64/MinInt64
// sentinels, and no buckets.
func TestReportEmptyHistogram(t *testing.T) {
	r := New()
	r.Histogram("never_ns")
	rep := r.Report("x", nil)
	if len(rep.Histogram) != 1 {
		t.Fatalf("histograms = %d, want 1", len(rep.Histogram))
	}
	h, ok := rep.Histogram["never_ns"]
	if !ok || h.Count != 0 || h.Sum != 0 || h.Min != 0 || h.Max != 0 || h.Buckets != nil {
		t.Fatalf("empty histogram report = %+v (present=%v), want zeros", h, ok)
	}
}

// TestWriteReportFile round-trips a report through a file.
func TestWriteReportFile(t *testing.T) {
	r := New()
	r.Counter("c").Add(7)
	path := t.TempDir() + "/report.json"
	if err := r.WriteReportFile(path, "cmd", nil); err != nil {
		t.Fatal(err)
	}
	// Parse it back through the exported Report type to prove the file
	// is valid JSON matching the schema.
	var buf bytes.Buffer
	if err := r.WriteReport(&buf, "cmd", nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"c": 7`)) {
		t.Fatalf("report missing counter: %s", buf.String())
	}
}
