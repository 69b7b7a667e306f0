# Single source of truth for the commands CI runs, so humans and the
# workflow can't drift apart.

GO ?= go

.PHONY: all build build-arm64 build-bigendian vet fmt test test-scalar race race-matcher fuzz-smoke crash-recovery failover-smoke bench bench-smoke benchmark-smoke load-smoke metrics-smoke loc

all: build vet test

build:
	$(GO) build ./...

# The assembly kernels are declared in kernels_amd64.go and must each have a
# twin in kernels_noasm.go; only a build for another architecture notices a
# missing one. vet type-checks the two packages' tests as well, which call the
# kernels directly.
#
# The third line audits fusion. Go may compile x*y + z on float32 into one
# fused multiply-add on arm64 (FMADDS and its kin), which rounds once where
# amd64 rounds twice, so the packages whose arithmetic reaches matcher state
# or a decision must show none: an explicit float32(x*y) stops the fusion.
# The compiler's own listing (-S) is read, not a linked binary, so functions
# no binary calls are audited too; -a rebuilds, because a build-cache hit
# prints no listing. sparseAtLeast32Scalar is allowed: its filter bound
# covers any rounding. The audit compiles arm64 code and never runs it.
build-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/vector ./internal/hnsw
	GOARCH=arm64 $(GO) build -a -gcflags='repro/internal/...=-S' ./internal/vector ./internal/embed ./internal/multiem ./internal/hnsw ./internal/ann ./internal/cluster 2>&1 | \
	awk ' \
		/^repro\/internal\/[a-z]+\.[^ ]* STEXT/ { fn = $$1; n++ } \
		/\t(FMADDS|FMSUBS|FNMADDS|FNMSUBS)\t/ && fn ~ "^repro/internal/(vector|embed|multiem|hnsw|ann|cluster)\\." && fn != "repro/internal/vector.sparseAtLeast32Scalar" { print "fused multiply-add in " fn ": " $$0; bad = 1 } \
		END { if (n == 0) { print "build-arm64: the compiler printed no listing to audit"; exit 1 } exit bad }'

# internal/binio moves whole arenas between memory and the file as one block
# where the host is little-endian and word by word elsewhere, chosen at run
# time by hostBigEndian. No amd64 or arm64 run takes the big-endian side, so
# this leg builds the serializers for s390x and vets them there, tests
# included: binio, and vector and hnsw, whose row codec and index file
# (vector.SparseRows.WriteRows/ReadRows) go through it.
build-bigendian:
	GOARCH=s390x $(GO) build ./internal/binio ./internal/vector ./internal/hnsw ./internal/multiem
	GOARCH=s390x $(GO) vet ./internal/binio ./internal/vector ./internal/hnsw

# bench/ is a module of its own, so ./... never reaches it; vetting it here
# makes a program change that breaks the benchmark's build fail this fast
# job, not only benchmark-smoke.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# fmt rewrites; CI uses `gofmt -l` as a read-only gate (see ci.yml).
fmt:
	gofmt -w .

test:
	$(GO) test ./...

# Same suite forced onto the portable scalar distance kernels, so the
# non-AVX2 dispatch path stays green on AVX2 CI runners.
test-scalar:
	VECTOR_KERNELS=scalar $(GO) test ./...

# The second line runs the fan-out primitive and the packages that call it
# with workers <= 0 under one P and four: at -cpu=1 par.For takes its inline
# single-worker path, at 4 it spawns goroutines that claim blocks.
race:
	$(GO) test -race -timeout 25m ./...
	$(GO) test -race -cpu=1,4 -count=1 ./internal/par ./internal/ann ./internal/embed ./internal/baselines

# The sharded matcher's locking under both a single P (lock ordering) and
# real parallelism (shard contention). The crash-recovery property matrix
# and the 32k-tuple chunked-state hammer make this the longest suite; the
# explicit timeout keeps single-core boxes from tripping go test's 10m
# default.
race-matcher:
	$(GO) test -race -cpu=1,4 -count=1 -timeout 45m ./internal/multiem

# ~15s of coverage-guided fuzzing per target: the batch-record decoder, the
# matcher-file loader with its embedded HNSW index, and that index's decoder
# on its own, where every mutation lands in its fields (all three parse bytes
# a follower fetched from its -primary-url), the SIMD kernels against their
# scalar reference, the bitmask-row gather against Dot on the expanded row on
# every kernel path the CPU has (any float bits: NaN payloads, −0,
# subnormals, infinities), the sparse store's rows against the dense rows
# they came from (expanded and summed, bit for bit), the encoder's sparse
# token accumulation against its dense definition, its field pooling
# (attribute selection's path) against encoding the serialized record, and
# the Prometheus text parser the load generator and the benchmark read a
# server's /metrics with. go test -fuzz takes one package and one target per
# run. A crasher lands in that package's testdata/fuzz/ — commit it with the
# fix, it replays as a regression test under plain `make test`. The two
# loaders' inputs are whole files, and each input reads the memory
# statistics twice: without the cap, minimising the first input that reaches
# new code (60s by default) would be the entire run.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBatchRecord$$' -fuzztime=$(FUZZTIME) ./internal/multiem
	$(GO) test -run='^$$' -fuzz='^FuzzLoadMatcher$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/multiem
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeIndex$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/hnsw
	$(GO) test -run='^$$' -fuzz='^FuzzSIMDKernels$$' -fuzztime=$(FUZZTIME) ./internal/vector
	$(GO) test -run='^$$' -fuzz='^FuzzMaskGather$$' -fuzztime=$(FUZZTIME) ./internal/vector
	$(GO) test -run='^$$' -fuzz='^FuzzSparseRow$$' -fuzztime=$(FUZZTIME) ./internal/vector
	$(GO) test -run='^$$' -fuzz='^FuzzEncodeMatchesDense$$' -fuzztime=$(FUZZTIME) ./internal/embed
	$(GO) test -run='^$$' -fuzz='^FuzzFieldsMatchEncode$$' -fuzztime=$(FUZZTIME) ./internal/embed
	$(GO) test -run='^$$' -fuzz='^FuzzParseExposition$$' -fuzztime=$(FUZZTIME) ./internal/obs

# Black-box crash recovery: run the server under ingest load, SIGKILL it,
# restart on the same -wal-dir, and diff /stats and the SHA-256 of /tuples
# against the pre-kill state; prints the restart-to-ready time.
crash-recovery:
	./scripts/crash_recovery.sh

# Black-box failover: primary + follower over WAL shipping, SIGKILL the
# primary mid-ingest, promote the follower, and assert it serves every
# acked batch and accepts writes. FAILOVER_LOG_DIR collects both processes'
# logs (CI uploads them on failure).
failover-smoke:
	./scripts/failover.sh

# Open-loop load smoke: ~5s of mixed /match + /add traffic at a fixed
# arrival rate against a live server; fails on any error or empty
# histogram. Leaves loadgen-smoke.json (CI uploads it). See
# docs/BENCHMARKING.md.
load-smoke:
	./scripts/load_smoke.sh

# Observability smoke: boot a durable server with the debug listener on,
# drive loadgen traffic, and assert /metrics is well-formed Prometheus
# text exposition with the key matcher/WAL/HNSW/HTTP series non-zero, and
# that pprof answers on -debug-addr. See docs/OPERATIONS.md (Monitoring).
metrics-smoke:
	./scripts/metrics_smoke.sh

# Developer-loop microbenchmarks; see docs/BENCHMARKING.md for what they are
# and are not for.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration per benchmark: proves the bench harness still compiles and
# runs without paying for stable numbers. -short skips the million-entity
# IngestLive prepopulation, which is minutes of setup for one iteration.
bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run=^$$ ./...

# The repository benchmark (BENCHMARK.json -> bench/run.sh) at 1/50 size,
# every workload, plus the harness's own tests. bench/ is a module of its
# own, so neither `make test` nor `make bench-smoke` (./...) reaches it: this
# is what notices a change to the program that breaks the benchmark.
benchmark-smoke:
	bash bench/run.sh --workload all --smoke
	$(GO) test -C bench ./...

# Line counts, the numbers a CHANGES.md entry quotes: non-test and test Go
# outside bench/, the bench/ module, and the assembly kernels.
loc:
	@printf 'non-test Go outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
	@printf 'test Go outside bench/:     '; find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
	@printf 'bench/ Go:                  '; find ./bench -name '*.go' | xargs cat | wc -l
	@printf 'assembly outside bench/:    '; find . -name '*.s' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
