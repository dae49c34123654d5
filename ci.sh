#!/bin/sh
# Full local CI gate: tier-1 build+test, vet, and race detection on the
# concurrency-heavy packages (the simnet actor engine — including the
# wire parity tests that run a full distributed loopback-TCP topology —
# the wire transport itself, the obs registry's lock-free instruments,
# the sweep scheduler — whose test suite hammers two faulted sweeps
# concurrently — the shared dataset cache, and the slot paths: fl.Fold's
# lanes and the core and baseline slots write shared rows from the
# workers of sched.For, the one index fan-out).
# go test ./... also runs the dead-code gate (internal/deadcode): every
# non-test declaration must be reached from a main package, an init, the
# benchmark module's non-test code or the gate's commented allowlist,
# with the amd64 or the arm64 file set. Tests keep nothing alive: a
# helper only tests need lives in their _test.go, or in internal/fl/fltest
# when several packages' tests share it.
set -eux

go build ./...
go vet ./...
# Every Go file is gofmt-clean, the benchmark module's included.
test -z "$(gofmt -l .)"
go test ./...

# The wire codec moves float64 vectors as raw bytes on a little-endian
# host and element by element on a big-endian one; no CI machine is
# big-endian, so at least keep that path compiling and vetted. The same
# leg vets the pure-Go twins of the quantizer's and the stream's AVX2
# lanes and of the tensor kernels, whose assembly exists only on amd64.
GOARCH=s390x go build ./...
GOARCH=s390x go vet ./internal/wire ./internal/quant ./internal/rng ./internal/tensor
# arm64 is the other non-amd64 file set the tensor, model and fl code
# splits on (and the one the dead-code gate analyses): keep it building
# and vetted too.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor ./internal/model ./internal/fl ./internal/quant ./internal/rng ./internal/wire

# The benchmark harness is a module of its own (repro/benchmark, replacing
# repro with ../), so the three commands above neither build nor run it.
# Vet and test it, then run every workload in --quick mode: seconds, not a
# measurement — it proves that every metric of BENCHMARK.json is produced
# and every cross-engine oracle agrees (exit 0 only if no operation failed).
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh --workload all --quick

go test -race ./internal/simnet/... ./internal/wire/... ./internal/quant/... ./internal/obs/... ./internal/sched/... ./internal/data/... ./internal/population/... ./internal/fl/ ./internal/core/ ./internal/baselines/

# Forced-kernel-class legs: every distinct body of the dispatch ladder
# must pass the whole suite and reproduce its class's golden
# trajectories and experiment digests, wherever CI runs — a class whose
# assembly the CPU lacks falls back to its bit-identical pure-Go twin, so
# both regimes are testable on any machine. sse2 and avx2f32 have no leg:
# they bind the generic and the avx2 bodies, so they would only re-run
# those legs (their names are asserted selectable below). -count=1
# because only the packages whose tests read HIERFAIR_KERNEL while they
# run (tensor, model, fl and the engine packages through fltest,
# invariance, experiments) key their cached results on it; the others
# would hand back the default class's result. The race legs re-run the
# fl and core suites, whose slots fan fl.Fold's lane rows out over
# sched.For.
for KC in generic avx2; do
	HIERFAIR_KERNEL=$KC go test -count=1 ./...
	HIERFAIR_KERNEL=$KC go test -race -count=1 ./internal/fl/ ./internal/core/
done
# The key itself: tensor's default-class result is cached by the first
# go test above, and an unknown class panics in tensor's init, so this
# run without -count=1 must fail. A cached ok means the tests no longer
# read the variable.
if HIERFAIR_KERNEL=bogus go test ./internal/tensor >/dev/null 2>&1; then
	echo "ci: HIERFAIR_KERNEL=bogus go test ./internal/tensor passed: the test cache no longer keys on the kernel class" >&2
	exit 1
fi

# Short fuzz smoke on the simplex projections, the wire codec, the
# uniform quantizer and the mean kernel: a few seconds per target
# re-explores the corpus plus fresh mutations of the feasibility, non-negativity and
# idempotence contracts (simplex), the never-crash / roundtrip /
# bounded-allocation contracts (wire frame decoding, including the
# compressed-payload frame's canonical-form contract) and the
# bit-for-bit equality of the word-at-a-time and four-lane pack/unpack
# kernels with their scalar reference (quant), of the wire codec's bulk vector
# move and gather write with the per-element loops that define the
# format, and of every rung's mean kernel with its Zero + axpy + Scale
# definition on raw bit patterns (tensor). Long exploratory sessions stay manual
# (go test -fuzz=... -fuzztime=5m ./internal/simplex).
go test -run '^$' -fuzz '^FuzzSimplexProject$' -fuzztime 5s ./internal/simplex
go test -run '^$' -fuzz '^FuzzCappedSimplexProject$' -fuzztime 5s ./internal/simplex
go test -run '^$' -fuzz '^FuzzDecodeMessage$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzPackedVec$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzVecFastMatchesPortable$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzPackUniform$' -fuzztime 5s ./internal/quant
go test -run '^$' -fuzz '^FuzzMeanMatchesComposition$' -fuzztime 5s ./internal/tensor

# Multi-process smoke: the same seeded workload trained once in a
# single simnet process and once split across five OS processes (cloud,
# two edge servers, two client hosts) talking real TCP on loopback.
# The saved models must be byte-identical, and every report line except
# the per-process arena internals must match. The smoke runs three times
# — dense uplinks, a sparse-population leg in which each edge process
# trains its roster cohorts and the client hosts idle, and a
# forced-compression leg (-quant-bits 8) in which Packed payloads really
# cross the sockets — so the cross-process determinism contract is
# proven for each regime.
SMOKE=$(mktemp -d /tmp/wire_smoke.XXXXXX)
# On exit, stop every role still in the background (after a failed leg
# they would wait out their hello timeouts), then remove their directory.
smoke_cleanup() {
	pids=$(jobs -p)
	if [ -n "$pids" ]; then
		kill $pids 2>/dev/null || true
		wait $pids 2>/dev/null || true
	fi
	rm -rf "$SMOKE"
}
trap smoke_cleanup EXIT
go build -o "$SMOKE/hierminimax" ./cmd/hierminimax

# wire_addr polls an output file until the role reports its bound port.
# The file may not exist yet: the shell creates it when it starts the
# backgrounded role, which can be after the first poll.
wire_addr() {
	for _ in $(seq 1 100); do
		addr=$(sed -n "s/^$2 listening on //p" "$1" 2>/dev/null || true)
		if [ -n "$addr" ]; then
			echo "$addr"
			return 0
		fi
		sleep 0.1
	done
	echo "ci: $2 never reported its listen address" >&2
	return 1
}

# The compressed leg runs last: the checks after the loop reuse its WARGS.
for SMOKELEG in "dense:" "population:-population 1000 -sample-per-round 4" "compressed:-quant-bits 8"; do
	LEG="$SMOKE/${SMOKELEG%%:*}"
	mkdir -p "$LEG"
	WARGS="-dataset synthetic -edges 2 -clients 2 -me 2 -rounds 6 -eval 3 -tau1 1 -tau2 1 -batch 2 -dim 8 -train 40 -test 20 -seed 5 ${SMOKELEG#*:}"

	"$SMOKE/hierminimax" $WARGS -engine simnet -savemodel "$LEG/ref.gob" > "$LEG/ref.out"
	"$SMOKE/hierminimax" $WARGS -role cloud -listen 127.0.0.1:0 -savemodel "$LEG/wire.gob" > "$LEG/cloud.out" &
	CLOUD=$!
	CLOUD_ADDR=$(wire_addr "$LEG/cloud.out" cloud)
	PIDS=""
	for e in 0 1; do
		"$SMOKE/hierminimax" $WARGS -role edge -edge-index "$e" -listen 127.0.0.1:0 -connect "$CLOUD_ADDR" \
			-metrics-out "$LEG/edge$e.prom" > "$LEG/edge$e.out" &
		PIDS="$PIDS $!"
		EDGE_ADDR=$(wire_addr "$LEG/edge$e.out" edge)
		"$SMOKE/hierminimax" $WARGS -role client-host -edge-index "$e" -listen 127.0.0.1:0 -connect "$EDGE_ADDR" > "$LEG/ch$e.out" &
		PIDS="$PIDS $!"
	done
	wait $CLOUD
	for p in $PIDS; do
		wait "$p"
	done
	cmp "$LEG/ref.gob" "$LEG/wire.gob"
	# Reports must match line for line up to the engine tag and
	# per-process arena internals.
	grep -v 'listening on\|simnet pool:\|model written to' "$LEG/ref.out" > "$LEG/ref.cmp"
	grep -v 'listening on\|simnet pool:\|model written to' "$LEG/cloud.out" \
		| sed 's|HierMinimax/wire|HierMinimax/simnet|' > "$LEG/cloud.cmp"
	diff "$LEG/ref.cmp" "$LEG/cloud.cmp"
	# One connection per neighbour for the whole fault-free run: each
	# edge dials its client host and the cloud once, and never again. A
	# population's edge sends its idle client host nothing, so it dials
	# only the cloud.
	DIALS=2
	if [ "${SMOKELEG%%:*}" = population ]; then
		DIALS=1
	fi
	for e in 0 1; do
		if ! grep -qx "wire_dials_total $DIALS" "$LEG/edge$e.prom"; then
			echo "ci: edge $e of the ${SMOKELEG%%:*} smoke dialed other than $DIALS times:" >&2
			grep '^wire_dials_total' "$LEG/edge$e.prom" >&2
			exit 1
		fi
	done
done
# The compressed leg must actually have moved fewer bytes than the
# dense leg (the report's traffic line prices the compressed payloads).
DENSE_MB=$(sed -n 's/^traffic: cloud [0-9.]* MB, total \([0-9.]*\) MB$/\1/p' "$SMOKE/dense/ref.out")
COMP_MB=$(sed -n 's/^traffic: cloud [0-9.]* MB, total \([0-9.]*\) MB$/\1/p' "$SMOKE/compressed/ref.out")
awk -v d="$DENSE_MB" -v c="$COMP_MB" 'BEGIN { if (!(c + 0 < d + 0)) { print "ci: compressed traffic " c " MB not below dense " d " MB"; exit 1 } }'

# A mismatched process fails the handshake fast and by name: an edge and
# its client host built for one more round than the cloud are refused at
# the cloud's listener, and the cloud exits non-zero long before its 30 s
# handshake deadline, naming the fingerprint mismatch. The edge and the
# client host then wait for a cloud that is gone (there are no liveness
# timeouts yet), so they are killed.
MIS="$SMOKE/mismatch"
mkdir -p "$MIS"
timeout 20 "$SMOKE/hierminimax" $WARGS -role cloud -listen 127.0.0.1:0 > "$MIS/cloud.out" 2> "$MIS/cloud.err" &
CLOUD=$!
CLOUD_ADDR=$(wire_addr "$MIS/cloud.out" cloud)
"$SMOKE/hierminimax" $WARGS -rounds 7 -role edge -edge-index 0 -listen 127.0.0.1:0 -connect "$CLOUD_ADDR" > "$MIS/edge0.out" 2>&1 &
EDGE=$!
EDGE_ADDR=$(wire_addr "$MIS/edge0.out" edge)
"$SMOKE/hierminimax" $WARGS -rounds 7 -role client-host -edge-index 0 -listen 127.0.0.1:0 -connect "$EDGE_ADDR" > "$MIS/ch0.out" 2>&1 &
CH=$!
CLOUD_RC=0
wait $CLOUD || CLOUD_RC=$?
kill $EDGE $CH 2> /dev/null || true
wait $EDGE $CH || true
if [ "$CLOUD_RC" -eq 0 ] || [ "$CLOUD_RC" -eq 124 ]; then
	echo "ci: the cloud exited $CLOUD_RC with a mismatched edge (want a fast non-zero exit)"
	exit 1
fi
grep 'fingerprint mismatch' "$MIS/cloud.err"

# The regime table refuses by name before any work starts: an engine Run
# does not have names the ones it does, and a baseline asked to serve a
# wire role names the distributed roles (not the simnet engine the cloud
# role runs behind).
if "$SMOKE/hierminimax" $WARGS -engine wire > /dev/null 2> "$SMOKE/engine.err"; then
	echo "ci: -engine wire was accepted"
	exit 1
fi
grep 'want inprocess or simnet' "$SMOKE/engine.err"
if timeout 20 "$SMOKE/hierminimax" $WARGS -alg drfa -role cloud -listen 127.0.0.1:0 > /dev/null 2> "$SMOKE/roles.err"; then
	echo "ci: -alg drfa -role cloud was accepted"
	exit 1
fi
grep 'drfa does not .* on the distributed roles' "$SMOKE/roles.err"
# A half-valid Spec ends in an error naming the knob, not in a panic:
# WARGS has two edge areas, and a cap of 0.4 leaves P empty (2 x 0.4 < 1).
if "$SMOKE/hierminimax" $WARGS -pcap 0.4 > /dev/null 2> "$SMOKE/pcap.err"; then
	echo "ci: -pcap 0.4 on two edge areas was accepted"
	exit 1
fi
grep 'Spec.PCap' "$SMOKE/pcap.err"
if grep 'goroutine ' "$SMOKE/pcap.err"; then
	echo "ci: -pcap 0.4 ended in a panic"
	exit 1
fi

# sse2 is a second name for the generic bodies, kept selectable because
# BENCHMARK.json times one leg per class: forcing it must report the
# class and a pure-Go backing.
HIERFAIR_KERNEL=sse2 "$SMOKE/hierminimax" -print-kernel > "$SMOKE/sse2.out"
test "$(head -n 1 "$SMOKE/sse2.out")" = sse2
grep '^ladder: .*sse2=pure-go' "$SMOKE/sse2.out"

# avx2f32 is likewise a second name for the avx2 bodies: forcing it must
# report the class, with the same backing as avx2 in the ladder.
HIERFAIR_KERNEL=avx2f32 "$SMOKE/hierminimax" -print-kernel > "$SMOKE/avx2f32.out"
test "$(head -n 1 "$SMOKE/avx2f32.out")" = avx2f32
F32_BACKING=$(sed -n 's/^ladder: .*avx2f32=\([a-z-]*\).*/\1/p' "$SMOKE/avx2f32.out")
AVX2_BACKING=$(sed -n 's/^ladder: .* avx2=\([a-z-]*\).*/\1/p' "$SMOKE/avx2f32.out")
test -n "$F32_BACKING"
test "$F32_BACKING" = "$AVX2_BACKING"

# Sparse-population smoke: the same smoke-scale Fig. 3 comparison with
# a hundred thousand registered clients (twenty materialized per round)
# run on 1 and then 4 sweep workers must produce byte-identical
# artifacts (the curve and summary tables and both SVG panels) — the
# roster sampler and the streaming cohort folds are pure functions of
# (seed, round, edge), independent of scheduling. Only the figures run
# on a sparse population: any other experiment must refuse it.
go build -o "$SMOKE/experiments" ./cmd/experiments
mkdir -p "$SMOKE/pop1" "$SMOKE/pop4"
"$SMOKE/experiments" -exp fig3 -scale smoke -population 100000 -sample-per-round 20 -jobs 1 -out "$SMOKE/pop1" > /dev/null
"$SMOKE/experiments" -exp fig3 -scale smoke -population 100000 -sample-per-round 20 -jobs 4 -out "$SMOKE/pop4" > /dev/null
diff -r "$SMOKE/pop1" "$SMOKE/pop4"
if "$SMOKE/experiments" -exp table2 -population 10 -sample-per-round 2 > /dev/null 2>&1; then
	echo "ci: experiments -exp table2 accepted a sparse population"
	exit 1
fi
