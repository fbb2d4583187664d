// Command placement runs the control-site placement study: it ranks
// candidate second-site / data-center choices by the resulting
// operational profile, answering the paper's §VII question and
// reproducing its Waiau-to-Kahe comparison.
//
// Usage:
//
//	placement [-scenario both] [-realizations N] [-pairs] [-top K]
//	          [-workers N] [-metrics report.json] [-pprof addr]
//	placement -k K [-exact] [-objective green|weighted]
//	          [-max-candidates N] [-synthetic N] [-seed S] ...
//
// With -k the command runs the production-scale k-site search
// (internal/placement.SearchK) instead of the pair study: lazy greedy
// over the compressed pattern space, plus branch-and-bound to the
// provable optimum under -exact. By default the candidate universe is
// the Oahu inventory's control-site candidates over the hurricane
// ensemble; -synthetic N swaps in an N-site synthetic universe
// (-realizations rows, -seed) for scale runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
)

// main delegates to run so deferred cleanup (metrics flush, pprof
// shutdown) executes before the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "placement:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("placement", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "both", "threat scenario: hurricane, intrusion, isolation, or both")
	realizations := fs.Int("realizations", 1000, "hurricane realizations")
	pairs := fs.Bool("pairs", false, "search (second, data center) pairs instead of second site only")
	top := fs.Int("top", 10, "show the top K candidates")
	workers := fs.Int("workers", 0, "search worker bound (0 = GOMAXPROCS)")
	k := fs.Int("k", 0, "place K sites with the scalable search instead of the pair study (0 = pair study)")
	exact := fs.Bool("exact", false, "with -k: branch-and-bound to the provable optimum after greedy")
	objective := fs.String("objective", "green", "with -k: objective, green or weighted")
	maxCandidates := fs.Int("max-candidates", 0, "with -k: reject candidate universes larger than this (0 = unlimited)")
	synthetic := fs.Int("synthetic", 0, "with -k: use an N-site synthetic universe instead of Oahu")
	seed := fs.Uint64("seed", 19480628, "synthetic universe seed")
	var ocli obs.CLI
	ocli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ocli.Start("placement", args, os.Stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := ocli.Close(); err == nil {
			err = cerr
		}
	}()
	rec := ocli.Recorder()

	scenario, err := threat.ParseScenario(*scenarioName)
	if err != nil {
		return err
	}
	if *k > 0 {
		return runKSite(rec, scenario, *k, *exact, *objective, *maxCandidates,
			*synthetic, *seed, *realizations, *workers)
	}
	inv := assets.Oahu()
	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), inv)
	if err != nil {
		return err
	}
	cfg := hazard.OahuScenario()
	cfg.Realizations = *realizations
	fmt.Fprintf(os.Stderr, "generating %d realizations...\n", cfg.Realizations)
	genSpan := rec.StartSpan("cli.generate_ensemble_ns")
	ensemble, err := gen.Generate(cfg)
	genSpan.End()
	if err != nil {
		return err
	}

	req := placement.Request{
		Ensemble:  ensemble,
		Inventory: inv,
		Primary:   assets.HonoluluCC,
		Scenario:  scenario,
		Workers:   *workers,
	}
	start := time.Now()
	var candidates []placement.Candidate
	if *pairs {
		candidates, err = placement.SearchPairs(req)
	} else {
		candidates, err = placement.SearchSecondSite(req, assets.DRFortress)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "searched %d placements in %v\n", len(candidates), time.Since(start).Round(time.Microsecond))
	if rec != nil && len(candidates) > 0 {
		best := candidates[0]
		rec.Put("best_placement", map[string]any{
			"second":      best.Placement.Second,
			"data_center": best.Placement.DataCenter,
			"score":       best.Score,
		})
		rec.Put("candidates", len(candidates))
	}

	fmt.Printf("placement study: primary=%s scenario=%q config=6+6+6\n",
		assets.HonoluluCC, scenario)
	fmt.Printf("%-4s %-16s %-16s %8s  %s\n", "rank", "second", "datacenter", "green", "profile")
	for i, c := range candidates {
		if i >= *top {
			break
		}
		fmt.Printf("%-4d %-16s %-16s %7.1f%%  %s\n",
			i+1, c.Placement.Second, c.Placement.DataCenter,
			100*c.Outcome.Profile.Probability(opstate.Green), c.Outcome.Profile)
	}
	return nil
}

// runKSite is the -k mode: build the candidate universe (Oahu or
// synthetic), run SearchK, and report the chosen placement with the
// search statistics (evaluations, prune rate, distinct patterns).
func runKSite(rec *obs.Recorder, scenario threat.Scenario, k int, exact bool,
	objective string, maxCandidates, synthetic int, seed uint64,
	realizations, workers int) error {
	var weights placement.StateWeights
	switch objective {
	case "green":
		weights = placement.GreenWeights
	case "weighted":
		weights = placement.AvailabilityWeights
	default:
		return fmt.Errorf("unknown objective %q (green or weighted)", objective)
	}
	req := placement.KRequest{
		K:             k,
		Scenario:      scenario,
		Weights:       weights,
		Workers:       workers,
		Exact:         exact,
		MaxCandidates: maxCandidates,
	}
	if synthetic > 0 {
		fmt.Fprintf(os.Stderr, "generating synthetic universe: %d sites x %d rows (seed %d)...\n",
			synthetic, realizations, seed)
		ens, err := placement.SyntheticUniverse(synthetic, realizations, seed)
		if err != nil {
			return err
		}
		req.Ensemble = ens
		req.Candidates = ens.AssetIDs()
	} else {
		inv := assets.Oahu()
		gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), inv)
		if err != nil {
			return err
		}
		cfg := hazard.OahuScenario()
		cfg.Realizations = realizations
		fmt.Fprintf(os.Stderr, "generating %d realizations...\n", cfg.Realizations)
		genSpan := rec.StartSpan("cli.generate_ensemble_ns")
		ensemble, err := gen.Generate(cfg)
		genSpan.End()
		if err != nil {
			return err
		}
		req.Ensemble = ensemble
		req.Inventory = inv
	}
	lastPhase := ""
	req.Progress = func(p placement.KProgress) {
		if p.Phase != lastPhase {
			lastPhase = p.Phase
			fmt.Fprintf(os.Stderr, "phase %s...\n", p.Phase)
		}
	}

	start := time.Now()
	res, err := placement.SearchK(req)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "searched in %v\n", elapsed.Round(time.Microsecond))
	if rec != nil {
		rec.Put("ksite", map[string]any{
			"sites":             res.Sites,
			"score":             res.Score,
			"evaluated":         res.Evaluated,
			"pruned":            res.Pruned,
			"exact":             res.Exact,
			"candidates":        res.Candidates,
			"distinct_patterns": res.DistinctPatterns,
		})
	}

	mode := "greedy"
	if res.Exact {
		mode = "exact"
	}
	fmt.Printf("k-site placement: k=%d scenario=%q objective=%s mode=%s\n",
		k, scenario, objective, mode)
	fmt.Printf("candidates=%d distinct_patterns=%d evaluated=%d pruned=%d",
		res.Candidates, res.DistinctPatterns, res.Evaluated, res.Pruned)
	if total := res.Evaluated + res.Pruned; res.Exact && total > 0 {
		fmt.Printf(" prune_rate=%.1f%%", 100*float64(res.Pruned)/float64(total))
	}
	fmt.Printf("\nscore=%.6f profile=%s\nsites:\n", res.Score, res.Outcome.Profile)
	for _, id := range res.Sites {
		fmt.Printf("  %s\n", id)
	}
	return nil
}
