// Command experiments regenerates the paper's tables and figures.
//
//	experiments -exp fig3 -scale small     # Fig. 3 (convex comparison)
//	experiments -exp fig4 -scale small     # Fig. 4 (non-convex comparison)
//	experiments -exp table2 -scale small   # Table 2 (fairness across datasets)
//	experiments -exp table1 -scale small   # Table 1 companion (alpha sweep)
//	experiments -exp rates -scale smoke    # duality-gap rate at alpha 0 and 0.5
//	experiments -exp stationarity -scale smoke  # non-convex stationarity
//	experiments -exp ablations -scale smoke
//	experiments -exp chaos -scale smoke    # accuracy under injected faults
//	experiments -exp compression -scale smoke  # accuracy vs bytes-on-wire
//	experiments -exp all -scale smoke -jobs 8
//
// -jobs N runs the independent training runs inside each experiment on
// N workers (default GOMAXPROCS). Artifacts are bitwise identical for
// every N: the scheduler commits results in submission order and every
// run derives its randomness from the spec, never from the interleaving.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// knownExps is the -exp vocabulary beyond "all", in the order -exp all
// runs it.
var knownExps = []string{"fig3", "fig4", "table2", "table1", "rates", "stationarity", "ablations", "chaos", "compression"}

func main() {
	expChoices := strings.Join(append(slices.Clip(knownExps), "all"), "|")
	exp := flag.String("exp", "all", "experiment: "+expChoices)
	scaleName := flag.String("scale", "smoke", "scale: smoke|small|full")
	seed := flag.Uint64("seed", 42, "random seed")
	jobs := flag.Int("jobs", 0, "concurrent training runs (0 = GOMAXPROCS); any value yields identical artifacts")
	population := flag.Int("population", 0, "registered client population for the sparse regime (fig3|fig4 only; requires -sample-per-round)")
	samplePerRound := flag.Int("sample-per-round", 0, "clients sampled per round from -population")
	out := flag.String("out", "", "directory for CSV/JSON artifacts (empty = none)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-text metrics here at exit (plus a .json snapshot beside it)")
	traceOut := flag.String("trace-out", "", "stream a JSONL span trace journal to this path")
	pprofDir := flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "smoke":
		scale = experiments.Smoke
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(1)
	}
	if *exp != "all" && !slices.Contains(knownExps, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want %s)\n", *exp, expChoices)
		os.Exit(1)
	}
	if (*population > 0) != (*samplePerRound > 0) {
		fmt.Fprintf(os.Stderr, "experiments: -population and -sample-per-round must be set together\n")
		os.Exit(1)
	}
	if *population > 0 && *exp != "fig3" && *exp != "fig4" {
		fmt.Fprintf(os.Stderr, "experiments: -population applies to -exp fig3 or fig4 only\n")
		os.Exit(1)
	}
	// Artifacts are reproducible per (seed, kernel class): the rounding
	// regime is part of the provenance, so announce the active class,
	// the CPU-detected default and every rung's backing before any run
	// (off amd64 the avx2f32 tier runs its bit-identical pure-Go twins).
	fmt.Printf("kernel class: %s (detected %s, ladder %s)\n",
		tensor.ActiveKernel(), tensor.DetectedKernel(), tensor.Ladder())

	obsDone, err := obs.Setup(*metricsOut, *traceOut, *pprofDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// Phase timings come from obs spans, so the harness needs a hub even
	// when no exporter flag asked for one.
	if !obs.Enabled() {
		obs.SetGlobal(obs.New())
	}

	pool := sched.New(*jobs)
	progress := func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r[sweep %d/%d runs, %d workers]", done, total, pool.Workers())
	}
	pool.SetProgress(progress)
	clearProgress := func() {
		if done, _ := pool.Done(); done > 0 {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
	}

	// An experiment failure no longer aborts the invocation: the
	// remaining experiments still run and the combined failures produce
	// one non-zero exit at the end.
	var failures []string
	start := time.Now()
	run := func(name string, fn func() (experiments.Artifact, error)) {
		fmt.Printf("[%s started at scale %s]\n", name, scale)
		sp := obs.Start("experiment-phase", obs.Str("phase", name), obs.Str("scale", scale.String()))
		res, err := fn()
		clearProgress()
		if err != nil {
			sp.End()
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			return
		}
		if err := experiments.Export(res, os.Stdout, *out, name+"-"+scale.String()); err != nil {
			sp.End()
			fmt.Fprintf(os.Stderr, "experiments: export %s: %v\n", name, err)
			failures = append(failures, fmt.Sprintf("export %s: %v", name, err))
			return
		}
		fmt.Printf("[%s completed in %v at scale %s]\n\n", name, sp.End().Round(time.Millisecond), scale)
	}

	all := *exp == "all"
	if all || *exp == "fig3" {
		run("fig3", func() (experiments.Artifact, error) {
			if *population > 0 {
				return experiments.Fig3Population(pool, scale, *seed, *population, *samplePerRound)
			}
			return experiments.Fig3(pool, scale, *seed)
		})
	}
	if all || *exp == "fig4" {
		run("fig4", func() (experiments.Artifact, error) {
			if *population > 0 {
				return experiments.Fig4Population(pool, scale, *seed, *population, *samplePerRound)
			}
			return experiments.Fig4(pool, scale, *seed)
		})
	}
	if all || *exp == "table2" {
		run("table2", func() (experiments.Artifact, error) { return experiments.Table2(pool, scale, *seed) })
	}
	if all || *exp == "table1" {
		run("table1", func() (experiments.Artifact, error) { return experiments.Tradeoff(pool, scale, *seed) })
	}
	if all || *exp == "rates" {
		run("rates-alpha0", func() (experiments.Artifact, error) { return experiments.ConvergenceRate(pool, scale, 0, *seed) })
		run("rates-alpha05", func() (experiments.Artifact, error) { return experiments.ConvergenceRate(pool, scale, 0.5, *seed) })
	}
	if all || *exp == "stationarity" {
		run("stationarity", func() (experiments.Artifact, error) { return experiments.Stationarity(pool, scale, *seed) })
	}
	if all || *exp == "ablations" {
		run("ablations", func() (experiments.Artifact, error) { return experiments.Ablations(pool, scale, *seed) })
	}
	if all || *exp == "chaos" {
		run("chaos", func() (experiments.Artifact, error) { return experiments.ChaosSweep(pool, scale, *seed) })
	}
	if all || *exp == "compression" {
		run("compression", func() (experiments.Artifact, error) { return experiments.CompressionSweep(pool, scale, *seed) })
	}

	done, _ := pool.Done()
	wall := time.Since(start)
	hits, misses := data.CacheStats()
	if done > 0 {
		fmt.Printf("[sweep: %d runs on %d workers in %v (%.2f runs/sec), dataset cache %d hits / %d misses]\n",
			done, pool.Workers(), wall.Round(time.Millisecond),
			float64(done)/wall.Seconds(), hits, misses)
	}

	if err := obsDone(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: observability teardown:", err)
		os.Exit(1)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  - %s\n", f)
		}
		os.Exit(1)
	}
}
