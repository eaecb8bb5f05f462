package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

// expCmd regenerates every table and figure of the paper's evaluation
// from the simulated ecosystem and prints them with paper-vs-measured
// findings; it exits 2 when any experiment deviates from the paper's
// shape. At the default 1/100 scale a full run takes about 30 s on two
// cores; -scale 0.002 is a quick pass.
func expCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	config := worldFlags(fs)
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	outdir := fs.String("outdir", "", "also write each experiment's rows as a tab-separated .dat file here")
	return func(stdout, stderr io.Writer) error {
		cfg := config()
		fmt.Fprintf(stderr, "building world at scale %g (seed %d)...\n", cfg.Scale, cfg.Seed)
		runner, err := experiments.New(cfg)
		if err != nil {
			return err
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
			return err
		}
		failures := 0
		for _, res := range results {
			fmt.Fprintln(stdout, res.Render())
			if !res.OK() {
				failures++
			}
			if *outdir != "" {
				if err := writeDat(*outdir, res); err != nil {
					return err
				}
			}
		}
		if failures > 0 {
			return exitStatus{2, fmt.Sprintf("%d experiments deviated from the paper's shape", failures)}
		}
		return nil
	}
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
