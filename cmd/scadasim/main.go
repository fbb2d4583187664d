// Command scadasim runs one SCADA configuration as a live system on
// the discrete-event simulator under a compound-threat injection and
// reports the measured operational state alongside the analytical
// Table I prediction.
//
// Usage:
//
//	scadasim -config 6+6+6 -scenario both [-flood primary] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/scada"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// main delegates to run so deferred cleanup (metrics flush, pprof
// shutdown) executes before the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scadasim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("scadasim", flag.ContinueOnError)
	configName := fs.String("config", "6+6+6", `configuration: 2, 2-2, 6, 6-6, 6+6+6, 4, 4-4, or 3+3+3+3`)
	scenarioName := fs.String("scenario", "hurricane", "threat scenario: hurricane, intrusion, isolation, or both")
	flood := fs.String("flood", "", "flooded sites: empty, primary, primary+second, or all")
	seed := fs.Int64("seed", 1, "simulation seed")
	restoreAt := fs.Duration("restore", 0, "repair flooded sites at this simulated time (0 = never)")
	attackEnd := fs.Duration("attack-end", 0, "lift site isolations at this simulated time (0 = never)")
	var ocli obs.CLI
	ocli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ocli.Start("scadasim", args, os.Stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := ocli.Close(); err == nil {
			err = cerr
		}
	}()
	rec := ocli.Recorder()

	configs, err := topology.ExtendedConfigs(topology.ExtendedPlacement{
		Placement: topology.Placement{
			Primary: "honolulu-cc", Second: "waiau-plant", DataCenter: "drfortress-dc",
		},
		SecondDataCenter: "alohanap-dc",
	})
	if err != nil {
		return err
	}
	var cfg topology.Config
	found := false
	for _, c := range configs {
		if c.Name == *configName {
			cfg, found = c, true
		}
	}
	if !found {
		return fmt.Errorf("unknown configuration %q", *configName)
	}

	scenario, err := threat.ParseScenario(*scenarioName)
	if err != nil {
		return err
	}

	flooded := make([]bool, len(cfg.Sites))
	switch *flood {
	case "":
	case "primary":
		flooded[0] = true
	case "primary+second":
		if len(cfg.Sites) < 2 {
			return fmt.Errorf("configuration %q has no second site", cfg.Name)
		}
		flooded[0], flooded[1] = true, true
	case "all":
		for i := range flooded {
			flooded[i] = true
		}
	default:
		return fmt.Errorf("unknown flood pattern %q", *flood)
	}

	// Analytical prediction with the worst-case attacker.
	predicted, err := attack.WorstCase(cfg, flooded, scenario.Capability())
	if err != nil {
		return err
	}

	// Behavioral run with the attacker's concrete plan.
	params := scada.DefaultParams()
	params.Seed = *seed
	simSpan := rec.StartSpan("cli.simulate_ns")
	result, err := scada.Run(cfg, scada.Scenario{
		Flooded:           flooded,
		Isolated:          predicted.Plan.IsolatedSites,
		IntrusionsPerSite: predicted.Plan.IntrusionsPerSite,
		RestoreFloodedAt:  *restoreAt,
		AttackEndsAt:      *attackEnd,
	}, params)
	simSpan.End()
	if err != nil {
		return err
	}
	if rec != nil {
		rec.Put("simulation", map[string]any{
			"config":           cfg.Name,
			"scenario":         scenario.String(),
			"analytical_state": predicted.State.String(),
			"measured_state":   result.State.String(),
			"delivered":        result.Delivered,
			"proposed":         result.Proposed,
		})
	}

	fmt.Printf("configuration:    %s (%s)\n", cfg.Name, cfg.Arch)
	fmt.Printf("threat scenario:  %s\n", scenario)
	fmt.Printf("flooded sites:    %v\n", flooded)
	fmt.Printf("attacker plan:    isolate %v, intrusions %v\n",
		predicted.Plan.IsolatedSites, predicted.Plan.IntrusionsPerSite)
	fmt.Printf("analytical state: %s\n", predicted.State)
	fmt.Printf("measured state:   %s\n", result.State)
	fmt.Printf("commands:         %d delivered / %d proposed\n", result.Delivered, result.Proposed)
	fmt.Printf("max delivery gap: %v\n", result.MaxPostAttackGap)
	fmt.Printf("safety violated:  %v\n", result.SafetyViolated)
	fmt.Printf("monitoring:       max gap %v, at end %v\n", result.MaxMonitoringGap, result.MonitoringAtEnd)
	if result.DeliveryLatency.N > 0 {
		fmt.Printf("latency:          p50 %.0fms, p90 %.0fms, max %.0fms\n",
			1000*result.DeliveryLatency.P50, 1000*result.DeliveryLatency.P90, 1000*result.DeliveryLatency.Max)
	}
	if result.State != predicted.State && *restoreAt == 0 && *attackEnd == 0 {
		fmt.Println("WARNING: behavioral and analytical states disagree")
	}
	return nil
}
