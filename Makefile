.PHONY: check ratchet profile lint vet build test fmt

# The repository gate: exactly what CI runs (scripts/check.sh), stdlib
# toolchain only. Keep this the single local gate.
check:
	./scripts/check.sh

# Every bound in scripts/floors.txt: the coverage floor, the E17 reclaim
# soak's live/written ceiling, and perfbench's per-step count ceilings.
# Tighten a group's bounds with `./scripts/ratchet.sh <group> -record`.
ratchet:
	./scripts/ratchet.sh coverage
	./scripts/ratchet.sh reclaim
	./scripts/ratchet.sh counts

# Local profiling bundle in perf/: pprof CPU + heap profiles of the
# E11/E13/E15 wall-clock tests (the line CI's bench-smoke job runs), the
# hot-path microbenchmarks, and perfbench's per-step counts on redo.
# Inspect with `go tool pprof perf/oracle.test perf/cpu.pprof`.
profile:
	mkdir -p perf
	go test -count=1 -v -run '^(TestScaleOverlap|TestServeLoad|TestWorkloadFloor)$$' \
		-cpuprofile perf/cpu.pprof -memprofile perf/mem.pprof -o perf/oracle.test ./internal/oracle
	go test -run - -bench . -benchmem . ./internal/oct ./internal/memo ./internal/wal \
		| tee perf/microbench.txt
	bash perfbench/run.sh --workload redo --seed 1 --seconds 5 --trace 1

# staticcheck + govulncheck at the versions pinned in scripts/lint.sh;
# skips tools that are not installed locally (CI installs them).
lint:
	./scripts/lint.sh

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race -vet=all ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
