// Command revexp regenerates every table and figure of the paper's
// evaluation from the simulated ecosystem and prints them with
// paper-vs-measured findings.
//
// Usage:
//
//	revexp [-scale 0.01] [-seed 1] [-only fig2,table1] [-store mem|disk]
//	       [-world mem|disk]
//
// At the default 1/100 scale a full run takes a couple of minutes; use
// -scale 0.002 for a quick pass.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/revdb/storeflag"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the experiments; main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("revexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.01, "population scale relative to the real internet")
	seed := fs.Int64("seed", 1, "simulation seed")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	outdir := fs.String("outdir", "", "also write each experiment's rows as a tab-separated .dat file here")
	store := fs.String("store", "mem", "revocation database backend: mem or disk")
	storeDir := fs.String("storedir", "", "disk store directory (default: a fresh temp dir)")
	worldBackend := fs.String("world", "mem", "corpus backend: mem keeps sighting runs resident, disk spills sealed scan segments")
	worldDir := fs.String("worlddir", "", "corpus spill directory (default: a temp dir removed on exit)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "revexp:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "revexp:", err)
		}
	}()

	cfg := workload.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	if cfg.OpenStore, err = storeflag.Factory(*store, *storeDir); err != nil {
		fmt.Fprintln(stderr, "revexp:", err)
		return 1
	}
	if err := workload.ApplyWorldBackend(&cfg, *worldBackend, *worldDir); err != nil {
		fmt.Fprintln(stderr, "revexp:", err)
		return 1
	}
	fmt.Fprintf(stderr, "building world at scale %g (seed %d)...\n", *scale, *seed)
	runner, err := experiments.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "revexp:", err)
		return 1
	}
	defer runner.World.Close()
	fmt.Fprintf(stderr, "world: %d certificates, %d hosts, %d CAs\n",
		len(runner.World.Certs), len(runner.World.Hosts), len(runner.World.Authorities))

	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	var results []*experiments.Result
	if len(ids) == 0 {
		results, err = runner.All()
	} else {
		results, err = runner.Run(ids...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "revexp:", err)
		return 1
	}
	failures := 0
	for _, res := range results {
		fmt.Fprintln(stdout, res.Render())
		if !res.OK() {
			failures++
		}
		if *outdir != "" {
			if err := writeDat(*outdir, res); err != nil {
				fmt.Fprintln(stderr, "revexp:", err)
				return 1
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "revexp: %d experiments deviated from the paper's shape\n", failures)
		return 2
	}
	return 0
}

// writeDat saves an experiment's rows as a plot-ready tab-separated file
// (header line prefixed with '#').
func writeDat(dir string, res *experiments.Result) error {
	if len(res.Rows) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	if len(res.Header) > 0 {
		sb.WriteString("# " + strings.Join(res.Header, "\t") + "\n")
	}
	for _, row := range res.Rows {
		sb.WriteString(strings.Join(row, "\t") + "\n")
	}
	name := strings.ReplaceAll(res.ID, "/", "_") + ".dat"
	return os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644)
}
