// Command rev runs the reproduction: the simulated measurement study of
// §3 and the analyses built on it, the filter-cascade publisher, the
// CRLSet generator, a live endpoint audit, the browser test suite and the
// fault-injection harness, one subcommand each.
//
// Usage:
//
//	rev <subcommand> [flags]
//
// The world-building subcommands (scan, exp, cascade) share -scale, -seed
// and -disk; every subcommand takes -cpuprofile and -memprofile. Run
// `rev <subcommand> -h` for the rest of a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/workload"
)

// A command is one subcommand. setup declares its flags on fs and returns
// its body, which runs once they are parsed; a body's error is printed
// under the subcommand's name and exits 1, or exitStatus's code.
type command struct {
	name, args, summary string
	// badFlags is the exit status for flags that do not parse.
	badFlags int
	setup    func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error
}

var commands = []command{
	{"scan", "", "run the measurement pipeline and print the §3 dataset summary", 1, scanCmd},
	{"exp", "", "regenerate the paper's tables and figures with paper-vs-measured findings", 1, expCmd},
	{"cascade", "", "publish the filter-cascade snapshot/delta chain and audit it", 1, cascadeCmd},
	{"crlset", "-crls DIR -issuer PEM", "build a CRLSet from DER CRL files and compare encodings (§7.4)", 1, crlsetCmd},
	{"audit", "host:port", "audit a live TLS endpoint's revocation status", 1, auditCmd},
	{"suite", "", "run the browser revocation test suite (Table 2)", 1, suiteCmd},
	{"chaos", "", "run the seeded fault-injection differential harness", 2, chaosCmd},
}

// exitStatus ends a subcommand with status code, printing msg first when
// it is not empty.
type exitStatus struct {
	code int
	msg  string
}

func (e exitStatus) Error() string { return e.msg }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand; main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	var c *command
	for i := range commands {
		if len(args) > 0 && args[0] == commands[i].name {
			c = &commands[i]
			break
		}
	}
	if c == nil {
		fmt.Fprintln(stderr, "usage: rev <subcommand> [flags]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.summary)
		}
		return 1
	}
	fs := flag.NewFlagSet("rev "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rev %s [flags] %s\n", c.name, c.args)
		fs.PrintDefaults()
	}
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	body := c.setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return c.badFlags
	}
	fail := func(err error) {
		if msg := err.Error(); msg != "" {
			fmt.Fprintf(stderr, "rev %s: %s\n", c.name, msg)
		}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
		return c.badFlags
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fail(err)
		}
	}()
	if err := body(stdout, stderr); err != nil {
		fail(err)
		var st exitStatus
		if errors.As(err, &st) {
			return st.code
		}
		return 1
	}
	return 0
}

// startProfiles begins CPU profiling to cpuPath, when set, and returns the
// function that ends it and, when memPath is set, writes a heap profile
// after a GC so the live set is accurate.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}

// worldFlags declares the flags the world-building subcommands share and
// returns the Config they describe, to be read once the flags are parsed.
func worldFlags(fs *flag.FlagSet) func() workload.Config {
	scale := fs.Float64("scale", 0.01, "population scale relative to the real internet")
	seed := fs.Int64("seed", 1, "simulation seed")
	dir := fs.String("disk", "", "keep the world on disk under this directory: a segdb revocation store and the corpus spill, one subdirectory per world (default: in memory)")
	return func() workload.Config {
		cfg := workload.DefaultConfig()
		cfg.Scale, cfg.Seed, cfg.Dir = *scale, *seed, *dir
		return cfg
	}
}

// runWorld builds the world cfg describes and plays the study calendar.
func runWorld(cfg workload.Config, stderr io.Writer) (*workload.World, error) {
	world, err := workload.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "running %s..%s at scale %g\n",
		cfg.Start.Format("2006-01-02"), cfg.End.Format("2006-01-02"), cfg.Scale)
	if err := world.Run(); err != nil {
		world.Close()
		return nil, err
	}
	return world, nil
}
