// Command benchcheck gates CI on benchmark regressions. It reads `go
// test -bench -benchmem -count N` output and compares every benchmark
// in it against one machine-written baseline, keyed by package import
// path and benchmark name (the -GOMAXPROCS suffix stripped):
//
//	go test -run '^$' -bench . -benchtime 100x -benchmem -cpu 2 -count 5 ./internal/serve/ > bench.out
//	go run ./tools/benchcheck -input bench.out          # gate
//	go run ./tools/benchcheck -write -input bench.out   # rewrite the baseline
//
// `make bench-check` runs every gated benchmark and the gate; `make
// bench-baseline` runs the same benchmarks and rewrites the baseline.
//
// A benchmark regresses when its median ns/op over at least five runs
// exceeds 3x the baseline median, or when its median allocs/op exceeds
// the highest allocs/op the baseline runs saw. Allocation counts do
// not depend on the machine at a fixed -benchtime and -cpu, so that
// gate is exact. The time ratio is deliberately loose: shared CI
// machines are noisy, and the gate exists to catch order-of-magnitude
// regressions (an accidental re-lock in a hot loop, a lost memo table,
// a sweep falling off the deduplicated path), not few-percent drift.
// A baseline entry missing from the input, or an input benchmark the
// baseline lacks, also fails, so a rename, a deletion or a new
// benchmark cannot slip past the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"compoundthreat/internal/stats"
)

const (
	maxRatio = 3.0 // fail when the median ns/op exceeds this multiple of the baseline
	minRuns  = 5   // fewest -count runs a median is taken over
)

// entry is one benchmark's baseline: the median ns/op and the highest
// allocs/op over the runs it was written from.
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// samples holds every run of one benchmark.
type samples struct {
	ns, allocs []float64
}

// result is one gated benchmark: its medians against its baseline.
type result struct {
	Key       string
	Got, Base entry
	Ratio     float64 // Got.NsPerOp / Base.NsPerOp
}

// regressed names what failed the gate, or returns "" on a pass.
func (r result) regressed() string {
	switch {
	case r.Ratio > maxRatio:
		return "time"
	case r.Got.AllocsPerOp > r.Base.AllocsPerOp:
		return "allocs"
	}
	return ""
}

func main() {
	baselinePath := flag.String("baseline", "tools/benchcheck/baseline.json", "baseline file: median ns/op and highest allocs/op per benchmark")
	input := flag.String("input", "", "`go test -bench -benchmem -count N` output (default: stdin)")
	write := flag.Bool("write", false, "write the baseline from the input instead of checking against it")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	runs, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if *write {
		raw, err := json.MarshalIndent(baselineOf(runs), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(runs), *baselinePath)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base map[string]entry
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}
	results, err := check(base, runs)
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, r := range results {
		verdict := "ok"
		if what := r.regressed(); what != "" {
			verdict = "REGRESSION (" + what + ")"
			failed++
		}
		fmt.Printf("%-72s %13.0f ns/op %5.2fx  %6.0f allocs/op (baseline %.0f)  %s\n",
			r.Key, r.Got.NsPerOp, r.Ratio, r.Got.AllocsPerOp, r.Base.AllocsPerOp, verdict)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d benchmarks regressed: median ns/op over %.0fx baseline, or median allocs/op over baseline", failed, len(results), maxRatio))
	}
	fmt.Printf("benchcheck: %d benchmarks within %.0fx of baseline time and at or under baseline allocs\n", len(results), maxRatio)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}

// parse collects every benchmark result line of `go test -bench`
// output under its package-qualified key. Every benchmark must report
// allocs/op (-benchmem) and must have run at least minRuns times.
func parse(r io.Reader) (map[string]*samples, error) {
	runs := map[string]*samples{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		name, ns, allocs, ok := parseLine(line)
		if !ok {
			continue
		}
		if pkg == "" {
			return nil, fmt.Errorf("%s: result before any pkg: line", name)
		}
		if allocs < 0 {
			return nil, fmt.Errorf("%s: no allocs/op (run with -benchmem)", name)
		}
		key := pkg + "." + name
		s := runs[key]
		if s == nil {
			s = &samples{}
			runs[key] = s
		}
		s.ns = append(s.ns, ns)
		s.allocs = append(s.allocs, allocs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var short []string
	for key, s := range runs {
		if len(s.ns) < minRuns {
			short = append(short, fmt.Sprintf("%s (%d)", key, len(s.ns)))
		}
	}
	if len(short) > 0 {
		sort.Strings(short)
		return nil, fmt.Errorf("fewer than %d runs (use -count %d): %s", minRuns, minRuns, strings.Join(short, ", "))
	}
	return runs, nil
}

// summary summarizes one non-empty sample.
func summary(xs []float64) stats.Summary {
	s, _ := stats.Summarize(xs) // errors only on an empty sample
	return s
}

// baselineOf renders parsed runs as a baseline: the median ns/op and
// the highest allocs/op of each benchmark.
func baselineOf(runs map[string]*samples) map[string]entry {
	base := make(map[string]entry, len(runs))
	for key, s := range runs {
		base[key] = entry{NsPerOp: summary(s.ns).P50, AllocsPerOp: summary(s.allocs).Max}
	}
	return base
}

// check compares the median ns/op and allocs/op of every parsed
// benchmark against its baseline entry, sorted by key. It errors when
// the input and the baseline do not name the same benchmarks, so the
// gate cannot rot silently.
func check(base map[string]entry, runs map[string]*samples) ([]result, error) {
	var missing, unknown []string
	for key := range base {
		if runs[key] == nil {
			missing = append(missing, key)
		}
	}
	out := make([]result, 0, len(runs))
	for key, s := range runs {
		b, ok := base[key]
		if !ok || b.NsPerOp <= 0 {
			unknown = append(unknown, key)
			continue
		}
		got := entry{NsPerOp: summary(s.ns).P50, AllocsPerOp: summary(s.allocs).P50}
		out = append(out, result{Key: key, Got: got, Base: b, Ratio: got.NsPerOp / b.NsPerOp})
	}
	sort.Strings(missing)
	sort.Strings(unknown)
	switch {
	case len(missing) > 0:
		return nil, fmt.Errorf("baseline benchmarks missing from input: %s", strings.Join(missing, ", "))
	case len(unknown) > 0:
		return nil, fmt.Errorf("benchmarks with no usable baseline entry (rerun with -write): %s", strings.Join(unknown, ", "))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// parseLine extracts (name, ns/op, allocs/op) from one `go test -bench`
// result line, stripping the -GOMAXPROCS suffix from the name. allocs
// is -1 when the line reports no allocs/op.
func parseLine(line string) (name string, ns, allocs float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, 0, false
	}
	ns, allocs = -1, -1
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			ns = v
		case "allocs/op":
			allocs = v
		}
	}
	if ns < 0 {
		return "", 0, 0, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, ns, allocs, true
}
