package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultnet/chaostest"
	"repro/internal/hist"
	"repro/internal/scenario"
)

// chaosCmd drives the chaos differential harness: for each seed it plays
// the seeded world twice under fault injection (checking the runs are
// identical), once fault-free (checking the faulted crawl converged to the
// clean revocation database), and reports the fault tallies and invariant
// verdicts. It exits 1 when an invariant broke and 2 on a bad argument.
func chaosCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	seedList := fs.String("seeds", "20150501,3,77", "comma-separated chaos seeds")
	days := fs.Int("days", 8, "fault-exposed simulated days per run")
	tail := fs.Int("tail", 3, "fault-free tail days per run")
	certs := fs.Int("certs", 14, "certificates per CA")
	return func(stdout, stderr io.Writer) error {
		var seeds []uint64
		for _, s := range strings.Split(*seedList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return exitStatus{2, fmt.Sprintf("bad seed %q: %v", s, err)}
			}
			seeds = append(seeds, v)
		}

		failures := 0
		eng := scenario.New("chaos", int64(seeds[0]))
		fmt.Fprintf(stdout, "%-12s %-9s %-6s %-7s %-8s %-12s %-11s %s\n",
			"seed", "requests", "kinds", "revoked", "retries", "determinism", "convergence", "stale-good")
		for _, seed := range seeds {
			// Each run of the trio is its own engine phase: the phase's
			// wall histogram collects the per-evaluation browser latency
			// the harness records, and its digest fingerprints the run
			// outcome.
			chaosPhase := func(name string, opts chaostest.Options) (*chaostest.Outcome, error) {
				var out *chaostest.Outcome
				_, err := eng.Phase(fmt.Sprintf("seed-%d-%s", seed, name), func(p *scenario.Phase) error {
					opts.Latency = p.Sharded(1).Shard(0)
					var err error
					out, err = chaostest.Run(opts)
					if err != nil {
						return err
					}
					p.AddOps(int(opts.Latency.Count()))
					p.MixDigest(outcomeDigest(out))
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("seed %d: %w", seed, err)
				}
				return out, nil
			}

			opts := chaostest.Options{Seed: seed, Days: *days, Tail: *tail, CertsPerCA: *certs, Faulty: true}
			first, err := chaosPhase("faulted-a", opts)
			if err != nil {
				return err
			}
			second, err := chaosPhase("faulted-b", opts)
			if err != nil {
				return err
			}
			cleanOpts := opts
			cleanOpts.Faulty = false
			clean, err := chaosPhase("clean", cleanOpts)
			if err != nil {
				return err
			}

			deterministic := first.Faults.Digest == second.Faults.Digest &&
				first.Decisions == second.Decisions &&
				first.RevDB == second.RevDB &&
				reflect.DeepEqual(first.Crawl, second.Crawl)
			converged := first.RevDB == clean.RevDB && first.Revoked == clean.Revoked
			staleGood := first.StaleGoodViolations + clean.StaleGoodViolations

			verdict := func(ok bool) string {
				if ok {
					return "ok"
				}
				failures++
				return "FAIL"
			}
			fmt.Fprintf(stdout, "%-12d %-9d %-6d %-7d %-8d %-12s %-11s %s\n",
				seed, first.Faults.Requests, first.Faults.Kinds(), first.Revoked,
				first.Crawl.Retries+first.Crawl.OCSPRetries,
				verdict(deterministic), verdict(converged), verdict(staleGood == 0))
		}
		// Tail-latency line after the table: merged browser-evaluation
		// wall latency across every run, plus the worst phase.
		// Informational only; nothing above depends on it, so the table
		// stays byte-identical to the pre-engine harness.
		merged := &hist.Snapshot{}
		for _, p := range eng.Report().Phases {
			if p.WallHist != nil {
				merged.Add(p.WallHist)
			}
		}
		if s := merged.Summary(); s.Count > 0 {
			fmt.Fprintf(stdout, "browser eval latency: p50 %v p99 %v p999 %v max %v over %d evals\n",
				time.Duration(s.P50Ns), time.Duration(s.P99Ns), time.Duration(s.P999Ns),
				time.Duration(s.MaxNs), s.Count)
		}
		if failures > 0 {
			return fmt.Errorf("%d invariant failures", failures)
		}
		return nil
	}
}

// outcomeDigest reduces a chaos outcome to one deterministic word for
// the phase digest: the fault schedule, the decision trace, and the
// final revocation database.
func outcomeDigest(o *chaostest.Outcome) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", o.Faults.Digest, o.Decisions, o.RevDB, o.Revoked)
	return h.Sum64()
}
