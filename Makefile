GO ?= go

.PHONY: check vet build test race race-hot flake bench-smoke bench bench-all chaos fuzz-short

# check is the full pre-merge gate: static checks, the whole tree's
# tests without and then with the race detector (the allocation and
# throughput-ratio gates skip under -race, so the plain pass is the one
# that holds them), race-enabled tests on the concurrency-hot packages,
# a hundred repeats of the tests that draw fresh CA keys, the chaos
# differential harness on its fixed seeds, a short fuzz pass over the
# DER-facing parsers, and a one-iteration smoke of the end-to-end
# world-build benchmark.
check: vet build test race-hot race flake chaos fuzz-short bench-smoke

# vet also type-checks the !unix files (GOOS=windows), which no Linux
# build compiles, and fails on any file gofmt would rewrite, naming it.
vet:
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./...
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
# batched crawler pool and its shared parse cache, fault injector,
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
	$(GO) run ./cmd/rev chaos -seeds 20150501,3,77,424242

# fuzz-short gives each fuzz target (the DER-facing parsers, the filter
# and manifest decoders) a 10s budget — enough to exercise the corpus plus
# some fresh mutations on every merge.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/der
	$(GO) test -run='^$$' -fuzz='^FuzzParseCRL$$' -fuzztime=10s ./internal/crl
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeEntry$$' -fuzztime=10s ./internal/crl
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=10s ./internal/ocsp
	$(GO) test -run='^$$' -fuzz=FuzzParseCertificate -fuzztime=10s ./internal/x509x
	$(GO) test -run='^$$' -fuzz=FuzzParseCRLSet -fuzztime=10s ./internal/crlset
	$(GO) test -run='^$$' -fuzz=FuzzCascadeDecode -fuzztime=10s ./internal/cascade
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=10s ./internal/cascade
	$(GO) test -run='^$$' -fuzz=FuzzRibbonDecode -fuzztime=10s ./internal/ribbon

# bench-smoke builds one world end to end under the benchmark harness —
# enough to catch pipeline regressions without paying for stable timings —
# makes one warm verdict per local verdict source, with its allocations,
# one cold CRL verdict (parse, verify, look up) with its allocations, and
# draws the plans of the heartbleed and offline fleets once.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkWorldBuild -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkWarmVerdict -benchtime=1x ./internal/browser
	$(GO) test -run='^$$' -bench=BenchmarkColdCRLVerdict -benchtime=1x ./internal/crl
	$(GO) test -run='^$$' -bench=BenchmarkBuildPlans -benchtime=1x ./internal/fleet

# bench runs the repository's benchmark (bench/, declared by
# BENCHMARK.json): all six workloads, end-to-end metrics.
bench:
	$(GO) run -C bench .

# bench-all runs every Go benchmark with memory stats (slow).
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem ./...
