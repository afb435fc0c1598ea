// Command repro regenerates every table and figure of the paper against
// the synthetic substrate, plus the ablations and system validations
// DESIGN.md records. Output is deterministic for a fixed seed.
//
// Usage:
//
//	repro [-seed N] [-only <id>] [-csv dir]
//
// Experiment ids: fig1 fig2a fig2b fig2c fig3 fig4 table1 nautilus cover
// pilot whatif radar anycast websteps dnsload platform
// ablation-placement ablation-budget ablation-correlated.
//
// With -csv, figure series are also written as CSV files for plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/afrinet/observatory/internal/experiments"
	"github.com/afrinet/observatory/internal/report"
)

func main() {
	seed := flag.Int64("seed", 42, "generator seed")
	only := flag.String("only", "", "run a single experiment id")
	csvDir := flag.String("csv", "", "also write figure series as CSV into this directory")
	flag.Parse()
	reproduce(os.Stdout, *seed, *only, *csvDir)
}

// reproduce writes every experiment's output to w, or only the one whose
// id is only when that is set; a non-empty csvDir also gets the CSVs.
func reproduce(w io.Writer, seed int64, only, csvDir string) {
	type renderable interface{ Render(io.Writer) }
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			log.Fatalf("repro: %v", err)
		}
	}

	run := func(id, title string, fn func() renderable) {
		if only != "" && only != id {
			return
		}
		start := time.Now()
		r := fn()
		fmt.Fprintf(w, "\n################ %s ################\n", title)
		r.Render(w)
		fmt.Fprintf(w, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}

	// Figure 1 needs only the timeline, not the full stack.
	run("fig1", "FIGURE 1 — infrastructure growth", func() renderable {
		r := experiments.Fig1Growth(seed)
		if csvDir != "" {
			writeFig1CSV(csvDir, r)
		}
		return r
	})

	var env *experiments.Env
	getEnv := func() *experiments.Env {
		if env == nil {
			env = experiments.NewEnv(seed, 2025)
		}
		return env
	}

	run("fig2a", "FIGURE 2a — detour prevalence", func() renderable { return experiments.Fig2aDetours(getEnv()) })
	run("fig2b", "FIGURE 2b — content locality", func() renderable { return experiments.Fig2bContentLocality(getEnv()) })
	run("fig2c", "FIGURE 2c — resolver locality", func() renderable { return experiments.Fig2cResolverUse(getEnv()) })
	run("fig3", "FIGURE 3 — IXP prevalence", func() renderable { return experiments.Fig3IXPPrevalence(getEnv()) })
	run("fig4", "FIGURE 4 — outage impact", func() renderable { return experiments.Fig4Outages(getEnv()) })
	run("table1", "TABLE 1 — scanning coverage", func() renderable { return experiments.Table1Scan(getEnv()) })
	run("nautilus", "§6.2 — cable identification", func() renderable { return experiments.NautilusAmbiguity(getEnv()) })
	run("cover", "FOOTNOTE 1 — IXP set cover", func() renderable { return experiments.SetCoverPlacement(getEnv()) })
	run("pilot", "§7.3 — Kigali pilot", func() renderable { return experiments.KigaliPilot(getEnv()) })
	run("whatif", "WHAT-IF — correlated cable cut", func() renderable { return experiments.WhatIfCableCut(getEnv()) })
	run("radar", "VALIDATION — Radar-style detection", func() renderable { return experiments.RadarValidation(getEnv()) })
	run("anycast", "§7.2 WORKLOAD — anycast census", func() renderable { return experiments.AnycastCensus(getEnv()) })
	run("websteps", "§7.2 WORKLOAD — websteps censorship sweep", func() renderable {
		return experiments.WebstepsCensorship(getEnv())
	})
	run("dnsload", "§5.2 AT SCALE — ECS localization under paced DNS load", func() renderable {
		return experiments.DNSLocalization(getEnv())
	})
	run("platform", "SYSTEM — measurements through the live platform", func() renderable {
		r, err := experiments.PlatformRun(getEnv(), 24)
		if err != nil {
			log.Fatalf("repro: platform run: %v", err)
		}
		return r
	})
	run("ablation-placement", "ABLATION — probe placement", func() renderable { return experiments.AblationPlacement(getEnv()) })
	run("ablation-budget", "ABLATION — budget scheduling", func() renderable { return experiments.AblationBudget(getEnv()) })
	run("ablation-correlated", "ABLATION — correlated cable failures", func() renderable {
		return experiments.AblationCorrelatedCuts(getEnv())
	})
}

// writeFig1CSV emits one long-format CSV per Figure-1 metric.
func writeFig1CSV(dir string, r experiments.GrowthResult) {
	metrics := []struct {
		name string
		get  func(experiments.GrowthPoint) float64
	}{
		{"fig1_ixps.csv", func(p experiments.GrowthPoint) float64 { return float64(p.IXPs) }},
		{"fig1_cables.csv", func(p experiments.GrowthPoint) float64 { return float64(p.Cables) }},
		{"fig1_ases.csv", func(p experiments.GrowthPoint) float64 { return float64(p.ASes) }},
	}
	for _, m := range metrics {
		var series []report.Series
		for name, pts := range r.Series {
			s := report.Series{Name: name}
			for _, p := range pts {
				s.Points = append(s.Points, [2]float64{float64(p.Year), m.get(p)})
			}
			series = append(series, s)
		}
		f, err := os.Create(filepath.Join(dir, m.name))
		if err != nil {
			log.Fatalf("repro: %v", err)
		}
		if err := report.WriteCSV(f, series...); err != nil {
			log.Fatalf("repro: %v", err)
		}
		f.Close()
	}
}
