# Tier-1 verification lives in verify.sh; `make verify` is the one command
# to run before committing.
.PHONY: verify build test race vet bench bench-parallel bench-pipeline bench-multicore bench-multicore-diff bench-diff bench-serve chaos

verify:
	./verify.sh

# Seeded fault-injection campaign: 50 distinct disk-fault/crash schedules
# against the store, race, checkpoint and serve workloads, invariants
# checked after each. Failures print a deterministic replay command.
chaos:
	go run -race ./cmd/localitylab chaos run -seed 1 -n 50 -out /tmp/chaos-manifest.json

# All benchmark artifacts: the scheduler comparison and the batched
# fast-path comparison.
bench: bench-parallel bench-pipeline

# Times a representative experiment grid at -parallel 1 vs the machine's
# core count and writes the comparison to BENCH_parallel.json.
bench-parallel:
	go run ./cmd/localitylab bench -size standard -out BENCH_parallel.json

# Times the simulation stack itself — cachesim/trace microbenchmarks, the
# standard suite's graph builds and batched-vs-scalar SimulateSpMV over
# that suite — and writes BENCH_pipeline.json, the committed baseline
# `bench diff` gates against. GOMAXPROCS and the repeat count are pinned
# so the file records the same conditions whoever regenerates it.
bench-pipeline:
	GOMAXPROCS=1 go run ./cmd/localitylab bench pipeline -size standard -repeats 11 -out BENCH_pipeline.json

# Starts a localityd daemon, replays the mixed loadtest workload against
# it and writes BENCH_serve.json (p50/p99 latency, shed/completion/
# cache-hit rates), the committed serving-layer baseline.
bench-serve:
	go build -o /tmp/localitylab-bench ./cmd/localitylab
	/tmp/localitylab-bench serve -addr 127.0.0.1:18099 -cachedir /tmp/localitylab-bench-cache & \
	SERVE_PID=$$!; sleep 1; \
	/tmp/localitylab-bench loadtest -url http://127.0.0.1:18099 -n 140 -c 8 -out BENCH_serve.json; \
	STATUS=$$?; kill -TERM $$SERVE_PID; wait $$SERVE_PID; \
	rm -rf /tmp/localitylab-bench-cache; exit $$STATUS

# Sweeps the boba parallel ordering across worker counts (each row
# cross-checked bit-exact against the serial permutation) and writes
# BENCH_multicore.json, the committed scaling baseline.
bench-multicore:
	go run ./cmd/localitylab bench multicore -size standard -out BENCH_multicore.json

# Scaling-erosion gate: re-runs the boba sweep into a scratch report and
# compares against the committed baseline. Meaningful on multicore
# machines; on one core the run still proves bit-exactness per row.
bench-multicore-diff:
	go run ./cmd/localitylab bench multicore -size standard -out /tmp/BENCH_multicore.json
	go run ./cmd/localitylab bench diff BENCH_multicore.json /tmp/BENCH_multicore.json

# Regression gate: re-runs the pipeline benchmarks into a scratch report
# and compares it against the committed baseline with the CI tolerance.
bench-diff:
	GOMAXPROCS=1 go run ./cmd/localitylab bench pipeline -size standard -repeats 11 -out /tmp/BENCH_pipeline.json
	go run ./cmd/localitylab bench diff BENCH_pipeline.json /tmp/BENCH_pipeline.json

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...
