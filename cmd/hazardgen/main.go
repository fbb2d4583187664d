// Command hazardgen generates hurricane realization ensembles and
// reports per-asset flood statistics: the natural-disaster input of
// the compound-threat framework.
//
// Usage:
//
//	hazardgen [-realizations N] [-seed S] [-o ensemble.json]
//	hazardgen -assets                 # print the asset inventory
//	hazardgen -correlate a,b          # joint flood statistics
//	hazardgen -track N                # dump one realization's track
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/mesh"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/report"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/wind"
)

// main delegates to run so deferred cleanup (metrics flush, pprof
// shutdown) executes before the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hazardgen:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hazardgen", flag.ContinueOnError)
	realizations := fs.Int("realizations", 1000, "hurricane realizations")
	seed := fs.Int64("seed", 0, "ensemble seed override (0 = calibrated default)")
	storm := fs.String("storm", "planning", "storm scenario: planning, direct-hit, major, or grazing")
	out := fs.String("o", "", "write the ensemble as JSON to this file")
	outCSV := fs.String("ocsv", "", "write per-asset depths as CSV to this file")
	listAssets := fs.Bool("assets", false, "print the Oahu asset inventory and exit")
	correlate := fs.String("correlate", "", "two asset IDs (comma separated) for joint flood stats")
	trackIdx := fs.Int("track", -1, "print the storm track of one realization and exit")
	mapFlag := fs.Bool("map", false, "render an ASCII map of the region and assets")
	mapRealization := fs.Int("map-realization", -1, "overlay one realization's inundation field on the map")
	var ocli obs.CLI
	ocli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ocli.Start("hazardgen", args, os.Stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := ocli.Close(); err == nil {
			err = cerr
		}
	}()
	rec := ocli.Recorder()

	inv := assets.Oahu()
	if *listAssets {
		return printAssets(inv)
	}

	tm := terrain.NewOahu()
	gen, err := hazard.NewGenerator(tm, surge.DefaultParams(), inv)
	if err != nil {
		return err
	}
	cfg, ok := hazard.OahuCatalog()[*storm]
	if !ok {
		return fmt.Errorf("unknown storm scenario %q (want planning, direct-hit, major, or grazing)", *storm)
	}
	cfg.Realizations = *realizations
	if *seed != 0 {
		cfg.Seed = *seed
	}

	if *mapFlag || *mapRealization >= 0 {
		return runMap(tm, gen, cfg, inv, *mapRealization)
	}

	if *trackIdx >= 0 {
		return printTrack(gen, cfg, *trackIdx)
	}

	fmt.Fprintf(os.Stderr, "generating %d realizations...\n", cfg.Realizations)
	genSpan := rec.StartSpan("cli.generate_ensemble_ns")
	ensemble, err := gen.Generate(cfg)
	genSpan.End()
	if err != nil {
		return err
	}
	rec.Put("realizations", cfg.Realizations)

	if *correlate != "" {
		parts := strings.Split(*correlate, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-correlate wants two asset IDs, got %q", *correlate)
		}
		return printCorrelation(ensemble, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}

	if *out != "" {
		if err := writeFile(*out, ensemble.WriteJSON); err != nil {
			return err
		}
	}
	if *outCSV != "" {
		if err := writeFile(*outCSV, ensemble.WriteCSV); err != nil {
			return err
		}
	}

	fr := report.FailureRates{}
	for _, a := range inv.All() {
		rate, err := ensemble.FailureRate(a.ID)
		if err != nil {
			return err
		}
		fr.Rows = append(fr.Rows, report.FailureRate{AssetID: a.ID, Probability: rate})
	}
	return report.WriteFailureRates(os.Stdout, fr)
}

// runMap renders the region (and optionally one realization's
// inundation field) as an ASCII map.
func runMap(tm *terrain.Model, gen *hazard.Generator, cfg hazard.EnsembleConfig, inv *assets.Inventory, realization int) error {
	m, err := mesh.Build(tm, mesh.DefaultConfig())
	if err != nil {
		return err
	}
	solver, err := surge.NewSolver(tm, surge.DefaultParams())
	if err != nil {
		return err
	}
	var tr *wind.Track
	if realization >= 0 {
		tr, err = gen.Track(cfg, realization)
		if err != nil {
			return err
		}
		fmt.Printf("inundation field of realization %d:\n", realization)
	}
	return renderMap(os.Stdout, tm, m, solver, inv, tr)
}

// writeFile writes an encoder's output to a file.
func writeFile(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := encode(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return f.Close()
}

func printAssets(inv *assets.Inventory) error {
	fmt.Printf("%-18s %-14s %9s %9s %6s  %s\n", "id", "type", "lat", "lon", "elev", "name")
	for _, a := range inv.All() {
		fmt.Printf("%-18s %-14s %9.4f %9.4f %5.1fm  %s\n",
			a.ID, a.Type, a.Location.Lat, a.Location.Lon, a.GroundElevationMeters, a.Name)
	}
	return nil
}

func printTrack(gen *hazard.Generator, cfg hazard.EnsembleConfig, idx int) error {
	tr, err := gen.Track(cfg, idx)
	if err != nil {
		return err
	}
	fmt.Printf("realization %d track (%v):\n", idx, tr.Duration())
	for _, p := range tr.Points() {
		fmt.Printf("  t=%-8v center=%v pc=%.1fhPa rmax=%.0fkm\n",
			p.Offset, p.Center, p.CentralPressureHPa, p.RMaxMeters/1000)
	}
	return nil
}

func printCorrelation(e *hazard.Ensemble, a, b string) error {
	onlyA, onlyB, both, err := e.JointFailures(a, b)
	if err != nil {
		return err
	}
	n := e.Size()
	fmt.Printf("joint flood statistics over %d realizations:\n", n)
	fmt.Printf("  %s only: %4d (%.1f%%)\n", a, onlyA, 100*float64(onlyA)/float64(n))
	fmt.Printf("  %s only: %4d (%.1f%%)\n", b, onlyB, 100*float64(onlyB)/float64(n))
	fmt.Printf("  both:        %4d (%.1f%%)\n", both, 100*float64(both)/float64(n))
	fmt.Printf("  neither:     %4d (%.1f%%)\n", n-onlyA-onlyB-both,
		100*float64(n-onlyA-onlyB-both)/float64(n))
	return nil
}
