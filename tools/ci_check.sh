#!/usr/bin/env bash
# CI gate: sanitizer build + full test suite + the robustness harnesses.
#
#   tools/ci_check.sh [build-dir]
#
# Builds with ASan/UBSan (POISONREC_SANITIZE=address;undefined) and
# compiler warnings as errors, checks that the GEMMs' exact-product rows
# hold no float multiply (tools/check_exact_products.py, here and in the
# -march=native build below), runs ctest and the campaign benchmark's
# self-test (campbench/run.py --test), then runs
# bench_fault_resilience (which fails when a nonzero failure rate forced
# no retry), bench_obs_overhead (gates telemetry cost at
# <3%/step and the guardrails' at <5%/step), and
# bench_defended_attack at a tiny scale so their machine-readable JSON
# lands under results/, runs the §IV-B timing bench's 3,000-item rows,
# runs a defended-campaign smoke through the CLI
# (adaptive defender + replacement pool end to end), checks that the CLI
# rejects flags it does not read, positional arguments, out-of-range
# rates, unparsable numbers and unknown rankers, attack methods and
# dataset presets, and that a guarded campaign resumed
# with --resume stops at its --steps budget, and finishes with a
# fully instrumented campaign whose telemetry artifacts (--metrics-out /
# --trace-out / --events-out) are checked by tools/validate_telemetry.py.
# After the campaign smokes, a fleet smoke exercises the orchestrator's
# graceful-shutdown contract (SIGTERM mid-fleet -> exit 2, the same
# command again -> exit 0, report/journal validated, nonzero rewards), a
# plan with an out-of-range rate must exit 1 untouched, a shared-fleet
# smoke runs two workers over one journal dir (SIGKILL one, the survivor
# seizes its lease and finishes; a --submit-dir drop mid-run must
# preempt; `fleet --status` is queried mid-run (healthy, exit 0) and
# after the SIGKILL (worker stale, exit 2), with both JSON exports
# validated by validate_telemetry.py --fleet-status against the
# journal's campaign set), an fsck smoke audits the fleet's state dir and then injects
# one storage fault per damage class offline (checkpoint bit-flip,
# checkpoint truncation, torn journal tail) checking the verdicts and
# exit codes `poisonrec fsck` promises, and a separate TSan build (also
# warnings as errors) runs the scheduler/journal/lease/chaos, engine,
# parallel-reward and environment tests race-free, along with the
# autograd walk's and the GEMM kernels' tests.
# A last build for the host's own ISA (-march=native, FMA included) runs
# the kernel, optimizer, module (GRU4Rec's session node against its
# composed graph) and golden-fixture tests, which must hold bit for bit
# there too, and the lane-wise tanh, exp, log1p, sigmoid and softplus
# against libm on every float, those that call expf in both of its forms.
# Override the scale knobs via the usual POISONREC_* env vars.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-san}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DPOISONREC_SANITIZE=address;undefined" \
  -DPOISONREC_WERROR=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# The GEMMs' exact-product rows must hold no float multiply: GCC may
# rewrite float(double(a)·double(b)) as one, which returns the same bits
# (so no test sees it) and takes the subnormal assists back.
python3 tools/check_exact_products.py "${BUILD_DIR}/src/nn/libpoisonrec_nn.a"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# The campaign benchmark is not part of the ctest build, but it sets
# FitConfig and PoisonRecConfig fields and wraps every ranker in its own
# decorator: build it (into the gitignored .bench_build/) and run its
# identity and metric-name tests, so a src/ change that breaks it fails
# here.
python3 campbench/run.py --test

# Small-scale harness runs; JSON outputs land in results/.
export POISONREC_SCALE="${POISONREC_SCALE:-0.05}"
export POISONREC_STEPS="${POISONREC_STEPS:-2}"
export POISONREC_SAMPLES="${POISONREC_SAMPLES:-4}"
export POISONREC_EVAL_USERS="${POISONREC_EVAL_USERS:-50}"
export POISONREC_OUT="${POISONREC_OUT:-results}"
mkdir -p "${POISONREC_OUT}"

"${BUILD_DIR}/bench/bench_fault_resilience"
"${BUILD_DIR}/bench/bench_obs_overhead"
"${BUILD_DIR}/bench/bench_defended_attack"
"${BUILD_DIR}/bench/bench_storage_integrity"

# Perf smoke: quick-mode kernel microbench. Engine identity is pinned
# by the golden fixtures in tests/batched_engine_test.cc, which ran in
# the ctest pass above and run again in the TSan leg below.
POISONREC_REPEATS=2 "${BUILD_DIR}/bench/bench_kernels"

# The §IV-B timing bench's step ends in Algorithm 1's update
# (core::PpoUpdate): run its smallest rows, Plain and BCBT at 3,000
# items, so that call runs here rather than only compiling.
"${BUILD_DIR}/bench/bench_bcbt_timing" \
  --benchmark_filter='BM_TrainingStep/3000/' --benchmark_min_time=0.01

# Defended-campaign smoke: adaptive defender in the loop, pooled attacker,
# crash-safe checkpointing. Must finish without exhausting the pool.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
"${BUILD_DIR}/tools/poisonrec" campaign \
  --dataset=Steam --scale="${POISONREC_SCALE}" \
  --steps="${POISONREC_STEPS}" --samples="${POISONREC_SAMPLES}" \
  --eval-users="${POISONREC_EVAL_USERS}" \
  --defense --defense-interval=4 --defense-bans=1 \
  --pool-reserve=10 --pool-min-live=2 \
  --checkpoint="${SMOKE_DIR}/defended.ckpt" --checkpoint-every=1

# Ranking-quality smoke on a catalog so small that held-out users have
# seen every item (MovieLens at 0.01: 37 items): the evaluation skips
# those events and must end.
timeout 60 "${BUILD_DIR}/tools/poisonrec" quality \
  --dataset=movielens --scale=0.01 --epochs=1 >/dev/null

# Strict flags: a flag the subcommand does not read, a --pool-* flag
# without --defense, a --guard-* flag without --guard, a positional
# argument, a fault rate outside [0, 1], a numeric value that does not
# parse (named with its value), an unknown ranker, attack method or
# dataset preset must each fail with exit 2, naming the flag or
# argument, before any work.
flag_reject() {  # flag_reject <flag-to-name> <subcommand> <args...>
  local rc=0 err
  err="$("${BUILD_DIR}/tools/poisonrec" "${@:2}" 2>&1 >/dev/null)" || rc=$?
  if [ "${rc}" -ne 2 ] || ! grep -q -- "$1" <<< "${err}"; then
    echo "flag smoke: expected exit 2 naming $1, got ${rc}: ${err}" >&2
    exit 1
  fi
}
flag_reject --stepz campaign --steps=1 --stepz=99
flag_reject --pool-reserve campaign --steps=1 --pool-reserve=5
flag_reject --guard-kl-max campaign --steps=1 --guard-kl-max=3
flag_reject -scale=0.02 campaign --steps=1 -scale=0.02
flag_reject --fault-failure campaign --steps=1 --fault-failure=1.5
flag_reject "--steps: 'abc'" campaign --steps=abc
flag_reject "--fault-failure: 'abc'" campaign --steps=1 --fault-failure=abc
flag_reject --ranker campaign --steps=1 --ranker=Bogus
flag_reject "--method: unknown method 'bogus'" attack --steps=1 --method=bogus
flag_reject "--method: unknown method 'bogus'" detect --method=bogus
flag_reject "--dataset: unknown dataset preset 'Bogus'" datagen \
  --dataset=Bogus "--out=${SMOKE_DIR}/bogus.csv"
flag_reject "--dataset: unknown dataset preset 'Bogus'" campaign --steps=1 \
  --dataset=Bogus

# Guarded resume: a 2-step guarded campaign resumed with --steps=3 must
# run one more step, not three.
guarded_args=(campaign --dataset=Steam --scale="${POISONREC_SCALE}"
  --samples="${POISONREC_SAMPLES}" --eval-users="${POISONREC_EVAL_USERS}"
  --guard "--checkpoint=${SMOKE_DIR}/guarded.ckpt")
"${BUILD_DIR}/tools/poisonrec" "${guarded_args[@]}" --steps=2 >/dev/null
resumed="$("${BUILD_DIR}/tools/poisonrec" "${guarded_args[@]}" --steps=3 \
           --resume)"
if ! grep -q "over 3 steps" <<< "${resumed}"; then
  echo "guarded resume smoke: expected 'over 3 steps'" >&2
  printf '%s\n' "${resumed}" >&2
  exit 1
fi

# Telemetry smoke: instrumented campaign with enough adversity that every
# pillar lights up — a moderate NaN-reward rate trips the guard on some
# steps (guard + rollback events) while leaving most steps to run their
# PPO update (ppo/update spans), and the defender's sweeps ban attacker
# accounts (ban events). The run is seeded, so the validated artifact
# contents are reproducible.
"${BUILD_DIR}/tools/poisonrec" campaign \
  --dataset=Steam --scale="${POISONREC_SCALE}" \
  --steps=10 --samples="${POISONREC_SAMPLES}" \
  --eval-users="${POISONREC_EVAL_USERS}" \
  --fault-nan=0.08 --guard --guard-rollbacks=50 \
  --checkpoint="${SMOKE_DIR}/telemetry.ckpt" \
  --defense --defense-interval=2 --defense-bans=1 \
  --pool-reserve=10 --pool-min-live=2 \
  --metrics-out="${SMOKE_DIR}/metrics.json" \
  --trace-out="${SMOKE_DIR}/trace.json" \
  --events-out="${SMOKE_DIR}/events.jsonl"
python3 tools/validate_telemetry.py \
  --metrics "${SMOKE_DIR}/metrics.json" \
  --trace "${SMOKE_DIR}/trace.json" \
  --events "${SMOKE_DIR}/events.jsonl" \
  --require-event-types step,guard,ban,checkpoint,campaign_begin,campaign_end

# Fleet smoke: orchestrate a small sweep, SIGTERM it mid-run (graceful
# shutdown must checkpoint at the step boundary and journal the frontier,
# exiting 2 = partial), then run the same command again, which continues
# the state dir to completion (exit 0), and validate the consolidated
# report + journal family. Exercises the same path as the SIGKILL test
# in tests/fleet_recovery_test.cc but through the CLI.
FLEET_DIR="${SMOKE_DIR}/fleet"
mkdir -p "${FLEET_DIR}"
cat > "${FLEET_DIR}/plan.json" <<'EOF'
{
  "name": "ci-fleet-smoke",
  "dataset": "Steam",
  "scale": 0.05,
  "defaults": {
    "steps": 14, "samples_per_step": 4, "attackers": 20,
    "trajectory_length": 20, "targets": 8, "embedding_dim": 8,
    "eval_users": 50
  },
  "campaigns": [
    {"id": "smoke0", "seed": 35},
    {"id": "smoke1", "seed": 32, "fault_preset": "flaky"},
    {"id": "smoke2", "seed": 39, "priority": 1}
  ]
}
EOF
fleet_args=(fleet "--plan=${FLEET_DIR}/plan.json"
  "--journal=${FLEET_DIR}/journal.jsonl"
  "--checkpoint-dir=${FLEET_DIR}/ckpts"
  "--report-json=${FLEET_DIR}/report.json"
  "--report-csv=${FLEET_DIR}/report.csv"
  --max-concurrent=1)
"${BUILD_DIR}/tools/poisonrec" "${fleet_args[@]}" &
FLEET_PID=$!
# Wait until at least two steps are durably journaled so the SIGTERM is
# genuinely mid-fleet, then ask for a graceful shutdown. The worker
# appends to journal.<worker id>.jsonl.
for _ in $(seq 1 600); do
  committed="$(cat "${FLEET_DIR}"/journal*.jsonl 2>/dev/null \
               | grep -c '"checkpointed"' || true)"
  if [ "${committed:-0}" -ge 2 ]; then
    break
  fi
  sleep 0.1
done
kill -TERM "${FLEET_PID}" 2>/dev/null || true
FLEET_RC=0
wait "${FLEET_PID}" || FLEET_RC=$?
if [ "${FLEET_RC}" -ne 2 ]; then
  echo "fleet smoke: expected exit 2 after SIGTERM, got ${FLEET_RC}" >&2
  exit 1
fi
"${BUILD_DIR}/tools/poisonrec" "${fleet_args[@]}"
python3 tools/validate_telemetry.py \
  --fleet-report "${FLEET_DIR}/report.json" \
  --fleet-journal "${FLEET_DIR}/journal.jsonl"
# This plan's shape (20 attackers x 20 clicks, 8 targets) and seeds give
# every campaign a nonzero step reward, so the checks above compare
# real rewards, not zeros.
python3 - "${FLEET_DIR}/report.json" <<'EOF'
import json, sys
flat = [c["id"] for c in json.load(open(sys.argv[1]))["campaigns"]
        if not any(reward for _, reward in c["step_rewards"])]
if flat: sys.exit("fleet smoke: all-zero step rewards in " + ", ".join(flat))
EOF

# Bad plan: a rate outside [0, 1] fails the parse, so the fleet exits 1
# before it starts a campaign or takes a lease.
BAD_DIR="${SMOKE_DIR}/bad-plan"
mkdir -p "${BAD_DIR}"
echo '{"campaigns": [{"id": "c0", "fault": {"failure": 1.5}}]}' \
  > "${BAD_DIR}/plan.json"
BAD_RC=0
"${BUILD_DIR}/tools/poisonrec" fleet "--plan=${BAD_DIR}/plan.json" \
  "--journal=${BAD_DIR}/journal.jsonl" "--checkpoint-dir=${BAD_DIR}/ckpts" \
  "--report-json=${BAD_DIR}/r.json" "--report-csv=${BAD_DIR}/r.csv" \
  2>/dev/null || BAD_RC=$?
if [ "${BAD_RC}" -ne 1 ] || [ -n "$(find "${BAD_DIR}" -name '*.lease')" ]
then
  echo "bad-plan smoke: expected exit 1 and no lease, got ${BAD_RC}" >&2
  exit 1
fi

# Post-run status: every campaign done, every worker snapshot carries a
# clean-shutdown marker, so the read-only status surface must exit 0 and
# its JSON export must validate (cross-checked against the journal's
# campaign set).
STATUS_RC=0
"${BUILD_DIR}/tools/poisonrec" fleet --status \
  "--journal=${FLEET_DIR}/journal.jsonl" \
  "--checkpoint-dir=${FLEET_DIR}/ckpts" \
  "--status-json=${FLEET_DIR}/status.json" || STATUS_RC=$?
if [ "${STATUS_RC}" -ne 0 ]; then
  echo "fleet smoke: post-run --status expected exit 0, got" \
       "${STATUS_RC}" >&2
  exit 1
fi
python3 tools/validate_telemetry.py \
  --fleet-journal "${FLEET_DIR}/journal.jsonl" \
  --fleet-status "${FLEET_DIR}/status.json"

# Shared-fleet smoke: two workers over one journal/checkpoint dir.
# Worker A is SIGKILLed mid-campaign; worker B seizes the stale
# lease (fencing token bump) and must finish the whole plan, exit 0.
# While B runs, a high-priority campaign dropped into --submit-dir must
# preempt the running low-priority one (journal gains a "preempted"
# record) and still leave everything done. Exercises the same paths as
# tests/fleet_shared_test.cc but through the CLI, cross-process.
SHARED_DIR="${SMOKE_DIR}/shared"
mkdir -p "${SHARED_DIR}/inbox"
cat > "${SHARED_DIR}/plan.json" <<'EOF'
{
  "name": "ci-shared-smoke",
  "dataset": "Steam",
  "scale": 0.05,
  "defaults": {
    "steps": 12, "samples_per_step": 4, "attackers": 8,
    "trajectory_length": 8, "targets": 4, "embedding_dim": 8,
    "eval_users": 50
  },
  "campaigns": [
    {"id": "shared0", "seed": 41},
    {"id": "shared1", "seed": 42},
    {"id": "shared2", "seed": 43}
  ]
}
EOF
shared_args=(fleet "--plan=${SHARED_DIR}/plan.json"
  "--journal=${SHARED_DIR}/journal.jsonl"
  "--checkpoint-dir=${SHARED_DIR}/ckpts"
  --lease-ttl=0.5 --max-concurrent=1)
"${BUILD_DIR}/tools/poisonrec" "${shared_args[@]}" --worker-id=wA \
  "--report-json=${SHARED_DIR}/report.wA.json" &
WA_PID=$!
# Let worker A durably commit a couple of steps, then kill it without
# ceremony — no signal handler runs, so its lease goes stale and its
# last journal line may be torn.
for _ in $(seq 1 600); do
  committed="$(cat "${SHARED_DIR}"/journal*.jsonl 2>/dev/null \
               | grep -c '"checkpointed"' || true)"
  if [ "${committed:-0}" -ge 2 ]; then
    break
  fi
  sleep 0.1
done
# Mid-run status: worker A is alive and heartbeating, so the cluster
# must read healthy (exit 0) while naming the worker and every campaign.
shared_status_args=(fleet --status
  "--journal=${SHARED_DIR}/journal.jsonl"
  "--checkpoint-dir=${SHARED_DIR}/ckpts")
STATUS_RC=0
"${BUILD_DIR}/tools/poisonrec" "${shared_status_args[@]}" \
  "--status-json=${SHARED_DIR}/status.mid.json" || STATUS_RC=$?
if [ "${STATUS_RC}" -ne 0 ]; then
  echo "shared smoke: mid-run --status expected exit 0, got" \
       "${STATUS_RC}" >&2
  exit 1
fi
if ! grep -q '"worker":"wA"' "${SHARED_DIR}/status.mid.json"; then
  echo "shared smoke: mid-run status does not name worker wA" >&2
  exit 1
fi
python3 tools/validate_telemetry.py \
  --fleet-journal "${SHARED_DIR}/journal.jsonl" \
  --fleet-status "${SHARED_DIR}/status.mid.json"
kill -9 "${WA_PID}" 2>/dev/null || true
WA_RC=0
wait "${WA_PID}" 2>/dev/null || WA_RC=$?
# Worker A died without ceremony: the status surface must classify its
# non-shutdown snapshot over a dead pid as stale and exit 2 (degraded).
# Guard on the wait status: if A outran the kill (exit < 128 = no
# signal), it published a clean-shutdown snapshot and healthy/exit-0 is
# the correct answer — the deterministic stale assertion lives in
# tests/fleet_status_test.cc.
STATUS_RC=0
"${BUILD_DIR}/tools/poisonrec" "${shared_status_args[@]}" \
  "--status-json=${SHARED_DIR}/status.dead.json" || STATUS_RC=$?
if [ "${WA_RC}" -ge 128 ]; then
  if [ "${STATUS_RC}" -ne 2 ]; then
    echo "shared smoke: post-SIGKILL --status expected exit 2, got" \
         "${STATUS_RC}" >&2
    exit 1
  fi
  if ! grep -q '"health":"stale"' "${SHARED_DIR}/status.dead.json"; then
    echo "shared smoke: SIGKILLed worker wA not classified stale" >&2
    exit 1
  fi
else
  echo "shared smoke: worker A finished before SIGKILL" \
       "(exit ${WA_RC}); skipping the stale-classification check"
fi
python3 tools/validate_telemetry.py \
  --fleet-journal "${SHARED_DIR}/journal.jsonl" \
  --fleet-status "${SHARED_DIR}/status.dead.json"
"${BUILD_DIR}/tools/poisonrec" "${shared_args[@]}" --worker-id=wB \
  "--submit-dir=${SHARED_DIR}/inbox" \
  "--report-json=${SHARED_DIR}/report.wB.json" &
WB_PID=$!
# Once worker B has a campaign running, submit a higher-priority one so
# the watchdog has to preempt at the next step boundary.
for _ in $(seq 1 600); do
  running="$(grep -c '"running"' "${SHARED_DIR}/journal.wB.jsonl" \
             2>/dev/null || true)"
  if [ "${running:-0}" -ge 1 ]; then
    break
  fi
  sleep 0.1
done
cat > "${SHARED_DIR}/inbox/urgent.json" <<'EOF'
{
  "id": "urgent", "priority": 10, "steps": 2, "samples_per_step": 4,
  "attackers": 8, "trajectory_length": 8, "targets": 4,
  "embedding_dim": 8, "eval_users": 50, "seed": 47
}
EOF
WB_RC=0
wait "${WB_PID}" || WB_RC=$?
if [ "${WB_RC}" -ne 0 ]; then
  echo "shared smoke: surviving worker expected exit 0, got ${WB_RC}" >&2
  exit 1
fi
if ! grep -q '"preempted"' "${SHARED_DIR}"/journal*.jsonl; then
  echo "shared smoke: no 'preempted' journal record — preemption never" \
       "fired" >&2
  exit 1
fi
if ! grep -q '"id":"urgent","state":"done"' "${SHARED_DIR}/report.wB.json"
then
  echo "shared smoke: submitted campaign 'urgent' did not finish" >&2
  exit 1
fi
python3 tools/validate_telemetry.py \
  --fleet-report "${SHARED_DIR}/report.wB.json" \
  --fleet-journal "${SHARED_DIR}/journal.jsonl"

# Fsck smoke: audit the fleet smoke's (healthy) state dir, then inject
# one storage fault per damage class offline and check the verdict table
# and exit codes the CLI contract promises (0 clean, 2 repairable-only,
# 1 unrepairable). Complements tests/fsck_chaos_test.cc, which sweeps
# live in-process fault schedules; this leg exercises the shipped binary
# against byte-level damage the way an operator would hit it.
FSCK_DIR="${SMOKE_DIR}/fsck"
fsck_expect() {  # fsck_expect <case> <expected-exit> <verdict-grep>
  local rc=0 out
  out="$("${BUILD_DIR}/tools/poisonrec" fsck \
    "--journal=${FSCK_DIR}/journal.jsonl" \
    "--checkpoint-dir=${FSCK_DIR}/ckpts")" || rc=$?
  if [ "${rc}" -ne "$2" ]; then
    echo "fsck smoke ($1): expected exit $2, got ${rc}" >&2
    printf '%s\n' "${out}" >&2
    exit 1
  fi
  # A here-string, not a pipe: grep -q exits at its first match, and
  # under pipefail the writer's SIGPIPE would fail the check.
  if ! grep -q "$3" <<< "${out}"; then
    echo "fsck smoke ($1): no verdict matching '$3' in report" >&2
    printf '%s\n' "${out}" >&2
    exit 1
  fi
}

# Healthy: the completed fleet state dir must come back clean.
rm -rf "${FSCK_DIR}"; cp -r "${FLEET_DIR}" "${FSCK_DIR}"
fsck_expect healthy 0 '0 unrepairable'

# Bit rot: flip one interior byte of every checkpoint epoch
# (smoke0.t<token>.ckpt) of one campaign — the integrity footer CRC must
# flag them corrupt, and with no intact epoch to fall back on the damage
# is unrepairable.
rm -rf "${FSCK_DIR}"; cp -r "${FLEET_DIR}" "${FSCK_DIR}"
python3 - "${FSCK_DIR}"/ckpts/smoke0.t*.ckpt <<'EOF'
import sys
for path in sys.argv[1:]:
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0x10
    open(path, "wb").write(bytes(data))
EOF
fsck_expect checkpoint_bitflip 1 'corrupt'

# Interrupted publish: truncate every epoch of one campaign below its
# header — torn.
rm -rf "${FSCK_DIR}"; cp -r "${FLEET_DIR}" "${FSCK_DIR}"
python3 - "${FSCK_DIR}"/ckpts/smoke1.t*.ckpt <<'EOF'
import sys
for path in sys.argv[1:]:
    with open(path, "r+b") as f:
        f.truncate(16)
EOF
fsck_expect checkpoint_truncated 1 'torn'

# Crash frontier: a half-written final record in a worker's journal is
# tolerated by replay, so the damage is repairable-only (exit 2).
rm -rf "${FSCK_DIR}"; cp -r "${FLEET_DIR}" "${FSCK_DIR}"
WORKER_JOURNAL="$(ls "${FSCK_DIR}"/journal.*.jsonl | head -n 1)"
printf '{"type":"campaign","id":"smoke0","sta' >> "${WORKER_JOURNAL}"
fsck_expect journal_torn_tail 2 'torn_tail'

# TSan leg: the fleet scheduler, watchdog, journal, and lease paths are
# intentionally multi-threaded control paths, the attacker engine runs
# on row-partitioned kernels and threaded sparse matmuls, parallel
# reward queries retrain neural ranker clones (NeuMF, and GRU4Rec through
# its one-node-per-session loss) whose embedding tables keep per-tensor
# row-sparse gradient bookkeeping, the environment builds its RecNum
# candidate lists on whichever query gets there first (env_test races
# four first calls), and every backward walk stamps the nodes it visits
# (tensor_test walks graphs that share a constant leaf on several threads
# at once); run their tests under ThreadSanitizer (incompatible with
# ASan, hence the separate build tree). The engine's golden cases are too small to split
# a GEMM's rows (kernels::kParallelMinWork); tensor_test's affine case
# does, and kernels_test, whose threaded cases split every variant at
# both lane widths, runs here too. batched_engine_test's
# LstmGatesTest splits the LSTM gates' rows (kernels::kParallelRowsMinWork).
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPOISONREC_SANITIZE=thread \
  -DPOISONREC_WERROR=ON
cmake --build "${TSAN_DIR}" -j "$(nproc)" \
  --target orch_test lease_test fleet_recovery_test fleet_shared_test \
           fsck_chaos_test fleet_status_test status_test \
           batched_engine_test parallel_test tensor_test kernels_test \
           env_test
"${TSAN_DIR}/tests/orch_test"
"${TSAN_DIR}/tests/lease_test"
"${TSAN_DIR}/tests/fleet_recovery_test"
"${TSAN_DIR}/tests/fleet_shared_test"
"${TSAN_DIR}/tests/fsck_chaos_test"
"${TSAN_DIR}/tests/status_test"
"${TSAN_DIR}/tests/fleet_status_test"
"${TSAN_DIR}/tests/batched_engine_test"
"${TSAN_DIR}/tests/parallel_test"
"${TSAN_DIR}/tests/tensor_test"
"${TSAN_DIR}/tests/kernels_test"
"${TSAN_DIR}/tests/env_test"

# Native leg: GCC and Clang contract a + b·c into one fused multiply-add
# wherever the target has FMA. -ffp-contract=off (src/ and tests/
# CMakeLists) keeps every float operation rounded as written, so a build
# for this host's full ISA (FMA, and autovectorization at AVX2/AVX-512
# width where the host has it) must pass the kernels' order-contract
# test, the bitwise Adam test and the golden fixtures unregenerated.
echo "native leg: host ISA flags:" \
  "$(grep -o -w -E 'sse4_2|avx|avx2|fma|avx512f' /proc/cpuinfo 2>/dev/null \
     | sort -u | tr '\n' ' ')"
NATIVE_DIR="${BUILD_DIR}-native"
NATIVE_TESTS=(kernels_test optimizer_test module_test batched_engine_test
  ranker_golden_test defended_test)
cmake -B "${NATIVE_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-march=native \
  -DPOISONREC_WERROR=ON
cmake --build "${NATIVE_DIR}" -j "$(nproc)" --target "${NATIVE_TESTS[@]}"
python3 tools/check_exact_products.py "${NATIVE_DIR}/src/nn/libpoisonrec_nn.a"
for test in "${NATIVE_TESTS[@]}"; do
  "${NATIVE_DIR}/tests/${test}"
done
# The libm kernels against libm on all 2^32 floats at both lane widths
# (four threads; about 1.5 min on a 4-vCPU x86-64 host), then those that
# call expf again with FMA masked from glibc's ifuncs, where expf is
# __expf_sse2 (about 3 min there, most of it the 4-lane softplus sweep's
# scalar reference; KernelsTest.ExpFormFollowsLibm fails if the tunable
# left libm on __expf_fma).
"${NATIVE_DIR}/tests/kernels_test" --gtest_also_run_disabled_tests \
  --gtest_filter='*OnEveryFloat*'
GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA "${NATIVE_DIR}/tests/kernels_test" \
  --gtest_also_run_disabled_tests \
  --gtest_filter='*Exp*OnEveryFloat*:*Sigmoid*OnEveryFloat*:*Softplus*OnEveryFloat*:KernelsTest.ExpForm*'

echo "ci_check: OK"
