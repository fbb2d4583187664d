package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const (
	rootPkg  = "compoundthreat"
	servePkg = "compoundthreat/internal/serve"
	shardPkg = "compoundthreat/internal/shard"
)

// line renders one `go test -bench -benchmem` result line at -cpu 2.
func line(name string, ns float64, allocs int) string {
	return fmt.Sprintf("%s-2   \t     100\t %12.0f ns/op\t    1024 B/op\t %6d allocs/op\n", name, ns, allocs)
}

// five renders minRuns identical runs of one benchmark.
func five(name string, ns float64, allocs int) string {
	return strings.Repeat(line(name, ns, allocs), minRuns)
}

// pkgOutput wraps result lines in the header and trailer `go test`
// prints for one package.
func pkgOutput(pkg string, lines ...string) string {
	return "goos: linux\ngoarch: amd64\npkg: " + pkg + "\ncpu: Test CPU\n" +
		strings.Join(lines, "") + "PASS\nok  \t" + pkg + "\t1.234s\n"
}

// figuresWith is a two-package input whose every median matches
// figuresBase, except for BenchmarkFigureAllEngine, whose result
// lines it is given.
func figuresWith(engine string) string {
	return pkgOutput(rootPkg,
		five("BenchmarkFigure9Sequential", 1900000, 27815),
		five("BenchmarkFigure9Workers/workers=8", 25000, 60),
		engine,
	) + pkgOutput(servePkg,
		five("BenchmarkServeSweepCached", 28000, 57),
	)
}

var figures = figuresWith(five("BenchmarkFigureAllEngine", 74000, 148))

var figuresBase = map[string]entry{
	rootPkg + ".BenchmarkFigure9Sequential":        {NsPerOp: 1900000, AllocsPerOp: 27815},
	rootPkg + ".BenchmarkFigure9Workers/workers=8": {NsPerOp: 25000, AllocsPerOp: 60},
	rootPkg + ".BenchmarkFigureAllEngine":          {NsPerOp: 74000, AllocsPerOp: 148},
	servePkg + ".BenchmarkServeSweepCached":        {NsPerOp: 28000, AllocsPerOp: 57},
}

// checkCase is one gate input: a baseline, benchmark output, and
// either the verdict per key (regressed(): "" passes) or an error.
type checkCase struct {
	name    string
	base    map[string]entry
	input   string
	want    map[string]string  // key → verdict, for every result
	wantNs  map[string]float64 // key → median ns/op, where checked
	wantErr string             // substring of the error; "" = none
}

func runCheckCases(t *testing.T, cases []checkCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs, err := parse(strings.NewReader(c.input))
			var results []result
			if err == nil {
				results, err = check(c.base, runs)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(c.want) {
				t.Fatalf("got %d results, want %d", len(results), len(c.want))
			}
			for i, r := range results {
				if i > 0 && r.Key < results[i-1].Key {
					t.Errorf("results out of order: %s before %s", results[i-1].Key, r.Key)
				}
				want, ok := c.want[r.Key]
				if !ok {
					t.Errorf("unexpected result %s", r.Key)
					continue
				}
				if got := r.regressed(); got != want {
					t.Errorf("%s: verdict %q, want %q (ratio %.2f, allocs %.0f vs %.0f)",
						r.Key, got, want, r.Ratio, r.Got.AllocsPerOp, r.Base.AllocsPerOp)
				}
				if ns, ok := c.wantNs[r.Key]; ok && r.Got.NsPerOp != ns {
					t.Errorf("%s: median %.0f ns/op, want %.0f", r.Key, r.Got.NsPerOp, ns)
				}
			}
		})
	}
}

func allOK(base map[string]entry) map[string]string {
	want := make(map[string]string, len(base))
	for key := range base {
		want[key] = ""
	}
	return want
}

func TestCheckHealthy(t *testing.T) {
	engine := rootPkg + ".BenchmarkFigureAllEngine"
	runCheckCases(t, []checkCase{{
		name:  "every benchmark at its baseline",
		base:  figuresBase,
		input: figures,
		want:  allOK(figuresBase),
	}, {
		// One slow run among five is noise the median ignores; the
		// allocation gate reads the median too.
		name: "median over count samples",
		base: map[string]entry{engine: {NsPerOp: 70000, AllocsPerOp: 148}},
		input: pkgOutput(rootPkg,
			line("BenchmarkFigureAllEngine", 71000, 146),
			line("BenchmarkFigureAllEngine", 990000, 190),
			line("BenchmarkFigureAllEngine", 73000, 147),
			line("BenchmarkFigureAllEngine", 69000, 148),
			line("BenchmarkFigureAllEngine", 75000, 145),
		),
		want:   map[string]string{engine: ""},
		wantNs: map[string]float64{engine: 73000},
	}, {
		name: "time at exactly the ratio",
		base: map[string]entry{engine: {NsPerOp: 70000, AllocsPerOp: 148}},
		input: pkgOutput(rootPkg,
			five("BenchmarkFigureAllEngine", 3*70000, 148),
		),
		want: map[string]string{engine: ""},
	}, {
		// The same benchmark name in two packages: each is gated
		// against its own entry, not a merged one.
		name: "package-qualified keys",
		base: map[string]entry{
			servePkg + ".BenchmarkObsSweep": {NsPerOp: 30000, AllocsPerOp: 58},
			shardPkg + ".BenchmarkObsSweep": {NsPerOp: 1200000, AllocsPerOp: 5175},
		},
		input: pkgOutput(servePkg, five("BenchmarkObsSweep", 31000, 58)) +
			pkgOutput(shardPkg, five("BenchmarkObsSweep", 1250000, 5150)),
		want: map[string]string{
			servePkg + ".BenchmarkObsSweep": "",
			shardPkg + ".BenchmarkObsSweep": "",
		},
		wantNs: map[string]float64{
			servePkg + ".BenchmarkObsSweep": 31000,
			shardPkg + ".BenchmarkObsSweep": 1250000,
		},
	}})
}

func TestCheckFlagsRegression(t *testing.T) {
	engine := rootPkg + ".BenchmarkFigureAllEngine"
	slow := allOK(figuresBase)
	slow[engine] = "time"
	allocs := allOK(figuresBase)
	allocs[engine] = "allocs"
	runCheckCases(t, []checkCase{{
		name: "time",
		base: figuresBase,
		input: figuresWith(line("BenchmarkFigureAllEngine", 74000, 148) +
			line("BenchmarkFigureAllEngine", 75000, 148) +
			strings.Repeat(line("BenchmarkFigureAllEngine", 3*74000+1, 148), 3)),
		want: slow,
	}, {
		name:  "allocations, one over the baseline",
		base:  figuresBase,
		input: figuresWith(five("BenchmarkFigureAllEngine", 74000, 149)),
		want:  allocs,
	}, {
		// A regression in one package's benchmark is not masked by,
		// nor blamed on, its namesake in another.
		name: "package-qualified keys",
		base: map[string]entry{
			servePkg + ".BenchmarkObsSweep": {NsPerOp: 30000, AllocsPerOp: 58},
			shardPkg + ".BenchmarkObsSweep": {NsPerOp: 1200000, AllocsPerOp: 5175},
		},
		input: pkgOutput(servePkg, five("BenchmarkObsSweep", 1250000, 58)) +
			pkgOutput(shardPkg, five("BenchmarkObsSweep", 1250000, 5150)),
		want: map[string]string{
			servePkg + ".BenchmarkObsSweep": "time",
			shardPkg + ".BenchmarkObsSweep": "",
		},
	}})
}

func TestCheckMissingBenchmark(t *testing.T) {
	runCheckCases(t, []checkCase{{
		name:    "baseline entry absent from input",
		base:    figuresBase,
		input:   figuresWith(""),
		wantErr: "missing from input: " + rootPkg + ".BenchmarkFigureAllEngine",
	}, {
		name:    "same name, other package",
		base:    map[string]entry{servePkg + ".BenchmarkObsSweep": {NsPerOp: 30000, AllocsPerOp: 58}},
		input:   pkgOutput(shardPkg, five("BenchmarkObsSweep", 30000, 58)),
		wantErr: "missing from input: " + servePkg + ".BenchmarkObsSweep",
	}})
}

func TestCheckMissingBaselineKey(t *testing.T) {
	base := map[string]entry{}
	for k, v := range figuresBase {
		base[k] = v
	}
	delete(base, rootPkg+".BenchmarkFigureAllEngine")
	runCheckCases(t, []checkCase{{
		name:    "input benchmark absent from baseline",
		base:    base,
		input:   figures,
		wantErr: "rerun with -write): " + rootPkg + ".BenchmarkFigureAllEngine",
	}, {
		name:    "unusable baseline entry",
		base:    map[string]entry{servePkg + ".BenchmarkServeSweepCached": {}},
		input:   pkgOutput(servePkg, five("BenchmarkServeSweepCached", 28000, 57)),
		wantErr: "rerun with -write",
	}})
}

func TestParseRejects(t *testing.T) {
	for _, c := range []struct {
		name, input, wantErr string
	}{
		{"fewer than five runs", pkgOutput(rootPkg, line("BenchmarkFigureAllEngine", 74000, 148)),
			"fewer than 5 runs (use -count 5): " + rootPkg + ".BenchmarkFigureAllEngine (1)"},
		{"no -benchmem", pkgOutput(rootPkg, strings.Repeat("BenchmarkFigureAllEngine-2 \t 100\t 74000 ns/op\n", minRuns)),
			"no allocs/op"},
		{"no pkg line", five("BenchmarkFigureAllEngine", 74000, 148), "before any pkg: line"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parse(strings.NewReader(c.input)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestWriteRoundTrip writes a baseline from varying runs and checks
// the same input against it: the baseline holds each median ns/op and
// highest allocs/op, and the gate passes.
func TestWriteRoundTrip(t *testing.T) {
	input := figures + pkgOutput(shardPkg,
		line("BenchmarkObsFleetMerge", 1200000, 5150),
		line("BenchmarkObsFleetMerge", 1300000, 5175),
		line("BenchmarkObsFleetMerge", 1100000, 5137),
		line("BenchmarkObsFleetMerge", 1250000, 5158),
		line("BenchmarkObsFleetMerge", 1240000, 5152),
	)
	runs, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(baselineOf(runs))
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]entry
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	merge := shardPkg + ".BenchmarkObsFleetMerge"
	if got, want := base[merge], (entry{NsPerOp: 1240000, AllocsPerOp: 5175}); got != want {
		t.Fatalf("written entry %+v, want %+v", got, want)
	}
	want := allOK(figuresBase)
	want[merge] = ""
	runCheckCases(t, []checkCase{{name: "same input", base: base, input: input, want: want}})
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		ns     float64
		allocs float64
		ok     bool
	}{
		{"BenchmarkFigure9Sequential-4 	 1 	 1900000 ns/op", "BenchmarkFigure9Sequential", 1900000, -1, true},
		{"BenchmarkFigure9Workers/workers=8-16 	 1 	 230000 ns/op 	 0 B/op 	 0 allocs/op", "BenchmarkFigure9Workers/workers=8", 230000, 0, true},
		{"BenchmarkStorePut-2 	 100 	 467831 ns/op 	 140.08 MB/s 	 66000 B/op 	 30 allocs/op", "BenchmarkStorePut", 467831, 30, true},
		{"BenchmarkTiny 	 1000000 	 0.25 ns/op", "BenchmarkTiny", 0.25, -1, true},
		{"BenchmarkBroken-2 	 --- FAIL: BenchmarkBroken-2", "", 0, 0, false},
		{"goos: linux", "", 0, 0, false},
		{"PASS", "", 0, 0, false},
		{"ok  	compoundthreat	12.3s", "", 0, 0, false},
	}
	for _, c := range cases {
		name, ns, allocs, ok := parseLine(c.line)
		if name != c.name || ns != c.ns || allocs != c.allocs || ok != c.ok {
			t.Errorf("parseLine(%q) = (%q, %v, %v, %v), want (%q, %v, %v, %v)",
				c.line, name, ns, allocs, ok, c.name, c.ns, c.allocs, c.ok)
		}
	}
}
