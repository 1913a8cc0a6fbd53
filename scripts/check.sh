#!/usr/bin/env bash
# Tier-1 verification: configure, build, test, and static-check the tree
# under the default config and again under AddressSanitizer + UBSanitizer.
# Run from the repository root:
#
#   scripts/check.sh            # both configurations
#   scripts/check.sh default    # just the default build
#   scripts/check.sh asan-ubsan # just the sanitizer build
#   scripts/check.sh tsan       # ThreadSanitizer (tuner/svc pools, kernel
#                               # lane, obs registry)
#
# Each preset also runs `smdcheck --all` (the static verifier over every
# built-in kernel, stream program and blocking scheme — see DESIGN.md
# "Static checking"), `smdcheck --dataflow --all` (exact liveness
# pressure vs. the dynamic replay oracle) and `smdtune --paper --jobs 4`
# (the parallel design-space search reproducing the paper's tuned points
# — see EXPERIMENTS.md "Design-space exploration"). The default preset
# also builds the perfbench harness (build/perfbench) without running it.
# clang-tidy, when available, gates src/analysis and src/kernel (warnings
# as errors; escape hatch SMD_TIDY_NO_GATE=1) and advises on the rest of
# src/.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan)
fi

declare -A build_dir=([default]=build [asan-ubsan]=build-asan-ubsan [tsan]=build-tsan)

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}" -j "$(nproc)"
  # Engine equivalence and kernel-lane overlap race gate (DESIGN.md
  # section 10): the event-driven simulation core must stay bit-identical
  # to the cycle-stepped reference -- explicit stepped/event pairs
  # (tests/differential.h) over randomized programs under both SDR
  # policies plus all four StreamMD variants, comparing RunStats and the
  # final memory image -- and both engines run a kernel launched during
  # memory traffic on the kernel-lane thread, joined at its retirement
  # (controller_test: lane errors, registry redirect, teardown). Runs
  # under EVERY preset: under tsan it is the data-race gate for the
  # controller/lane hand-off. Part of the suite above; re-run standalone
  # so a divergence or race is named in the log even when other tests
  # also fail.
  echo "==== kernel-lane overlap race gate (${preset}) ===="
  ctest --preset "${preset}" -R '^(lockstep_test|controller_test)$' \
    --output-on-failure
  if [ "${preset}" = default ] || [ "${preset}" = asan-ubsan ]; then
    # Memory-system step/jump/completion equivalence gate (DESIGN.md
    # sections 3.4 and 10): stepping MemSystem::tick() once per cycle,
    # jumping with tick_until(next_event_time()), and advancing with
    # tick_until_completion() -- each call stopping exactly on the tick of
    # the first op completion, as the event engine drives it -- must give
    # identical statistics, op finish times and memory images over ~200
    # random op mixes on small, often non-power-of-two machines; three
    # pinned mixes must keep their exact statistics, and the expiry-ordered
    # combining store must match a full-scan reference. Re-run standalone
    # so a divergence is named.
    echo "==== memory-system step/jump/completion equivalence (${preset}) ===="
    ctest --preset "${preset}" -R '^mem_test$' --output-on-failure
  fi
  # Kernel-backend equivalence gate (DESIGN.md section 17): the compiled
  # threaded-code VM must stay bit-identical to the reference interpreter
  # -- explicit interp/vm pairs: word-by-word outputs and field-by-field
  # InterpStats (kernel::diff_backends) over every built-in kernel and
  # randomized programs with conditional/broadcast transfers, and full
  # Table-3 variant runs under both SDR policies (tests/differential.h:
  # RunStats plus the final memory image). Runs under EVERY preset: tsan
  # included, because the VM's executor cache sits on the multi-threaded
  # tune/svc paths.
  echo "==== kernel VM equivalence sweep (${preset}) ===="
  ctest --preset "${preset}" -R vm_equivalence_test --output-on-failure
  # Kernel cost cache (DESIGN.md section 17): cached costs bit-identical
  # to fresh schedules, exact-content keys, uncached errors, eviction at
  # capacity, single-flight misses. Runs under EVERY preset: under tsan it
  # is the data-race gate for the process-wide cache every tune/svc
  # worker shares.
  echo "==== kernel cost cache (${preset}) ===="
  ctest --preset "${preset}" -R kernel_cost_cache_test --output-on-failure
  echo "==== smdcheck --all (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdcheck" --all
  echo "==== smdcheck --dataflow --all (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdcheck" --dataflow --all
  echo "==== smdtune --paper --jobs 4 (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdtune" --paper --jobs 4 --molecules 256
  # Service smoke + property suite (DESIGN.md section 13): payload
  # byte-identity vs. a direct single-threaded run, exactly one
  # simulation per unique config, zero simulations on resubmission, and
  # counter conservation under a randomized cancel/deadline/queue-full
  # mix. Runs under every preset -- under tsan this is the data-race
  # gate for the whole svc worker pool.
  echo "==== smdserve --demo (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdserve" --demo --molecules 64 --workers 4
  # Telemetry smoke (DESIGN.md section 15): the same demo with the full
  # tracing surface on. smdserve re-parses its own artifacts at exit --
  # span trees must partition every request exactly in both the Chrome
  # trace and the JSONL event log, and periodic stats snapshots must
  # land -- so a non-zero exit means the tracing pipeline broke.
  echo "==== smdserve --demo + tracing (${preset}) ===="
  telemetry_dir="${build_dir[${preset}]}/telemetry-smoke"
  mkdir -p "${telemetry_dir}"
  "${build_dir[${preset}]}/examples/smdserve" --demo --molecules 24 --workers 2 \
    --trace "${telemetry_dir}/trace.json" \
    --events "${telemetry_dir}/events.jsonl" \
    --stats-interval 20
  # The artifacts must also be valid JSON to an outside parser.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${telemetry_dir}" <<'PYEOF'
import json, sys
d = sys.argv[1]
doc = json.load(open(d + "/trace.json"))
assert any(e.get("ph") == "X" and "span" in e.get("args", {})
           for e in doc["traceEvents"]), "no span slices in trace"
lines = [json.loads(l) for l in open(d + "/events.jsonl") if l.strip()]
kinds = {l["type"] for l in lines}
assert "span" in kinds and "stats" in kinds, f"event log kinds: {kinds}"
print(f"telemetry artifacts parse back: {len(doc['traceEvents'])} trace "
      f"events, {len(lines)} event-log lines")
PYEOF
  fi
  # Observability + service suites (DESIGN.md section 15): histogram
  # quantile bound, span partition property, event-log torn-line
  # tolerance, exporter cadence. Under every preset -- tsan is the
  # data-race gate for the svc pool, the histograms and the span log.
  echo "==== obs suite (${preset}) ===="
  ctest --preset "${preset}" -R obs_test --output-on-failure
  echo "==== svc property suite (${preset}) ===="
  ctest --preset "${preset}" -R svc_test --output-on-failure
  if [ "${preset}" = default ] || [ "${preset}" = asan-ubsan ]; then
    # Multi-node decomposition self-check (DESIGN.md section 11): the
    # parallel taxonomy must sum exactly to total node-time at every node
    # count, and every per-node ledger must tile the step.
    echo "==== smdprof --scaling (${preset}) ===="
    "${build_dir[${preset}]}/examples/smdprof" --scaling --molecules 256
  fi
  if [ "${preset}" = default ]; then
    # Kernel-backend scoreboard (EXPERIMENTS.md "Interpreter vs. compiled
    # VM"): per built-in kernel, the VM must be bit-identical
    # (kernel::diff_backends) AND strictly faster than the interpreter;
    # either violation exits non-zero.
    echo "==== bench_native_kernels --selfcheck (${preset}) ===="
    "${build_dir[${preset}]}/bench/bench_native_kernels" --selfcheck
    # Benchmark-regression gate (see EXPERIMENTS.md "Profiling and
    # regression tracking"): on the first ever run record the baseline;
    # afterwards fail if any committed metric worsened beyond tolerance.
    if [ -f BENCH_baseline.json ]; then
      echo "==== smdprof --check-baseline (${preset}) ===="
      "${build_dir[${preset}]}/examples/smdprof" --check-baseline BENCH_baseline.json
    else
      echo "==== smdprof --record-baseline (first run) ===="
      "${build_dir[${preset}]}/examples/smdprof" --record-baseline BENCH_baseline.json
    fi
    # Benchmark harness (perfbench/, a CMake package of its own that
    # compiles src/ again): built only, not run, so a library API change
    # that breaks the harness fails here instead of in the benchmark run.
    echo "==== perfbench harness build (${preset}) ===="
    cmake -S perfbench -B "${build_dir[${preset}]}/perfbench"
    cmake --build "${build_dir[${preset}]}/perfbench" --target perfbench \
      -j "$(nproc)"
  fi
done

# Dead-API audit (advisory, never fails the run): header-declared
# functions with no caller outside their own translation unit and tests/.
# Matching is by name only, so review the list before deleting anything.
if command -v python3 >/dev/null 2>&1; then
  echo "==== dead API candidates (advisory) ===="
  python3 scripts/dead_api.py || true
fi

if command -v clang-tidy >/dev/null 2>&1; then
  tidy_build=${build_dir[${presets[0]}]}
  if [ ! -f "${tidy_build}/compile_commands.json" ]; then
    cmake --preset "${presets[0]}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  fi
  # Gating lint over the static-analysis surface itself: src/analysis and
  # src/kernel must be clean under the pinned .clang-tidy check set, with
  # every warning promoted to an error. Escape hatch (emergencies or
  # clang-tidy version skew only — fix the findings, don't live with it):
  #
  #   SMD_TIDY_NO_GATE=1 scripts/check.sh   # demote the gate to advisory
  echo "==== clang-tidy (gating: src/analysis src/kernel) ===="
  if [ "${SMD_TIDY_NO_GATE:-0}" = 1 ]; then
    echo "(SMD_TIDY_NO_GATE=1: gate demoted to advisory)"
    find src/analysis src/kernel -name '*.cpp' -print0 |
      xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "${tidy_build}" --quiet || true
  else
    find src/analysis src/kernel -name '*.cpp' -print0 |
      xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "${tidy_build}" --quiet \
        --warnings-as-errors='*'
  fi
  echo "==== clang-tidy (advisory: rest of src/) ===="
  find src -path src/analysis -prune -o -path src/kernel -prune -o \
      -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "${tidy_build}" --quiet
else
  echo "==== clang-tidy not found; skipping lint ===="
fi
echo "==== all checks passed ===="
