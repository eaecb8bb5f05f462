GO ?= go

.PHONY: check vet build test race race-hot flake bench-smoke bench bench-all bench-crl bench-crl-check bench-fleet bench-fleet-check bench-revdb bench-revdb-check bench-world bench-world-check bench-scenario bench-scenario-check chaos fuzz-short

# check is the full pre-merge gate: static checks, race-enabled tests on
# the concurrency-hot packages and then the whole tree (including the
# cascade differential battery in internal/workload), a hundred repeats
# of the tests that draw fresh CA keys, the chaos differential harness on
# its fixed seeds, a short fuzz pass over the
# DER-facing parsers, and a one-iteration smoke of the end-to-end
# world-build benchmark.
check: vet build race-hot race flake chaos fuzz-short bench-smoke bench-crl-check bench-fleet-check bench-revdb-check bench-world-check bench-scenario-check

# vet also fails on any file gofmt would rewrite, and names it.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot gives fast feedback on the packages where the serving-layer
# and client-layer concurrency lives (pre-signed OCSP cache, the fabric's
# lock-free routes and by-reference CDN hits, the CA's shared handler,
# batched crawler pool and the hinted CRL decode it calls, fault injector,
# sharded browser cache, fleet driver, revocation store backends, the
# browser suite's parallel profile runs, lazily seeded hosts, the virtual
# clock's lock-free read, a certificate's lazily filled identity).
race-hot:
	$(GO) test -race ./internal/simnet ./internal/ca ./internal/ocsp ./internal/crawler ./internal/faultnet/... ./internal/browser ./internal/fleet ./internal/revdb ./internal/revdb/segdb ./internal/corpus ./internal/workload ./internal/cascade ./internal/ribbon ./internal/hist ./internal/scenario ./internal/crl ./internal/testsuite ./internal/host ./internal/simtime ./internal/x509x

# flake repeats the two packages whose tests build filters and sets over
# freshly generated CA keys: an assertion that holds for most keys and
# not all (a probe outside a cascade's known population, say, which a
# level-1 false positive answers "revoked") fails about one run in fifty,
# and a hundred runs find it here instead of on somebody's merge.
flake:
	$(GO) test -count=100 ./internal/browser ./internal/crlset

# chaos runs the seeded fault-injection differential harness: fixed seeds,
# each played twice faulted and once clean, asserting determinism,
# convergence, and no stale Good.
chaos:
	$(GO) run ./cmd/chaos -seeds 20150501,3,77,424242

# fuzz-short gives each fuzz target (the DER-facing parsers, the filter
# and manifest decoders) a 10s budget — enough to exercise the corpus plus
# some fresh mutations on every merge.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/der
	$(GO) test -run='^$$' -fuzz='^FuzzParseCRL$$' -fuzztime=10s ./internal/crl
	$(GO) test -run='^$$' -fuzz='^FuzzParseCRLFrom$$' -fuzztime=10s ./internal/crl
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=10s ./internal/ocsp
	$(GO) test -run='^$$' -fuzz=FuzzParseCertificate -fuzztime=10s ./internal/x509x
	$(GO) test -run='^$$' -fuzz=FuzzParseCRLSet -fuzztime=10s ./internal/crlset
	$(GO) test -run='^$$' -fuzz=FuzzCascadeDecode -fuzztime=10s ./internal/cascade
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=10s ./internal/cascade
	$(GO) test -run='^$$' -fuzz=FuzzRibbonDecode -fuzztime=10s ./internal/ribbon

# bench-smoke builds one world end to end under the benchmark harness —
# enough to catch pipeline regressions without paying for stable timings.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkWorldBuild -benchtime=1x .

# bench regenerates BENCH_pr2.json: the OCSP serving-layer load report
# (cold per-request signing vs warm pre-signed cache).
bench:
	$(GO) run ./cmd/revload -o BENCH_pr2.json

# bench-all runs every Go benchmark with memory stats (slow).
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# bench-crl regenerates BENCH_pr4.json: the CRL data-path record
# (streaming parse, incremental re-sign, interned ingest) at full
# Heartbleed-scale fixtures.
bench-crl:
	$(GO) run ./cmd/benchcrl -o BENCH_pr4.json

# bench-crl-check is the benchstat-style regression gate in `make check`:
# it re-runs the CRL benchmarks on small fixtures (allocs/op for these
# paths is fixture-size independent) and fails if allocs/op regress
# against the numbers recorded in BENCH_pr4.json.
bench-crl-check:
	$(GO) run ./cmd/benchcrl -check BENCH_pr4.json -quick

# bench-fleet regenerates BENCH_pr5.json: the client-side fleet record
# (seed single-mutex cache vs sharded singleflight cache vs CRLSet/Bloom
# fast paths) at the full population.
bench-fleet:
	$(GO) run ./cmd/fleetload -o BENCH_pr5.json

# bench-fleet-check re-runs the fleet phases on a small population and
# fails if any acceptance gate (alloc reduction, singleflight collapse,
# warm hit ratio, worker-count determinism, CRLSet offline) breaks or the
# warm allocs/verdict regress against BENCH_pr5.json.
bench-fleet-check:
	$(GO) run ./cmd/fleetload -check BENCH_pr5.json -quick

# bench-revdb regenerates BENCH_pr6.json: the revocation-store backend
# record (mem-vs-disk ingest throughput, zero-alloc mmap lookups,
# 1M-entry cold-start recovery, and the 10M-entry RSS budget run).
bench-revdb:
	$(GO) run ./cmd/benchrevdb -o BENCH_pr6.json

# bench-revdb-check is the regression gate in `make check`: it re-runs
# the quick store benchmarks (ingest ratio, zero-alloc warm lookup,
# recovery digest) and validates the full-run numbers recorded in
# BENCH_pr6.json, including the RSS budget split.
bench-revdb-check:
	$(GO) run ./cmd/benchrevdb -check BENCH_pr6.json -quick

# bench-world regenerates BENCH_pr7.json: the world-engine record
# (streaming-vs-in-memory analyze digest parity, 1M-cert build
# throughput ratio, and the paper-scale 38.5M-cert RSS budget run).
bench-world:
	$(GO) run ./cmd/benchworld -o BENCH_pr7.json

# bench-world-check is the regression gate in `make check`: it re-runs
# the digest-parity and build-ratio phases on small fixtures and
# validates the full-run numbers recorded in BENCH_pr7.json, including
# the 38.5M RSS budget split.
bench-world-check:
	$(GO) run ./cmd/benchworld -check BENCH_pr7.json -quick

# bench-scenario regenerates BENCH_pr10.json: the scenario-engine tail-
# latency record of the headline Heartbleed preset (one million simulated
# clients against the CDN-fronted responder tier: per-phase p50/p99/p999
# wall latency, virtual time-to-convergence, stale-Good count).
bench-scenario:
	$(GO) run ./cmd/scenario -preset heartbleed-1m -o BENCH_pr10.json

# bench-scenario-check is the SLO gate in `make check`: it replays the
# scenario at the quick population (identical virtual-time schedule, so
# convergence hours must match the record exactly) and fails if the warm
# p99 or brownout p999 exceed 3x the recorded baseline, any stale-Good
# survives convergence, the histogram record path allocates or exceeds
# 25 ns/op, or the scenario digest differs across worker counts.
bench-scenario-check:
	$(GO) run ./cmd/scenario -check BENCH_pr10.json -quick

