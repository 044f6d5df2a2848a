#!/usr/bin/env bash
# Tier-1 verify: configure, build, test — exactly what CI runs on every
# push.
#
# Knobs:
#   BUILD_TYPE={RelWithDebInfo,Release,Debug}   (default RelWithDebInfo)
#   SANITIZE={tsan,asan}  sanitizer leg: Debug build with TSan or
#       ASan+UBSan, running the concurrency-facing suites (thread pool,
#       cache, engine and its cache stripes, batch/async streaming, metrics,
#       pipeline, HTTP server), the executor suites (unit tests and
#       the differential oracles) and the storage suite (tables and their
#       lazily built equality indexes) under the sanitizer runtime.
#   FORMAT=1              lint leg: clang-format --dry-run --Werror over
#       every tracked C++ file in src/ tests/ bench/ examples/ (the
#       committed .clang-format is the single source of truth). No build.
#   FAULTS=1              fault leg: runs the failpoint sweep
#       (fault_injection_test — armed throw/error/stall failpoints,
#       detail matching, engine/freshness/HTTP degradation to
#       per-request errors) under BOTH
#       TSan and ASan by re-entering this script once per sanitizer with
#       the ctest filter narrowed to the fault suite. The full sanitizer
#       legs also pick the suite up via their own filters; this leg is
#       the cheap, targeted re-run CI gates on.
#   COVERAGE=1            coverage leg: Debug build instrumented with
#       --coverage, full ctest run, then line coverage of src/core/ and
#       src/net/ is computed (gcovr when available, plain gcov
#       otherwise), written to ${BUILD_DIR}/coverage/ and compared
#       against the recorded floors — the leg fails if either subtree's
#       coverage drops below its floor.
#   COVERAGE_FLOOR=<pct>      recorded floor for src/core/ line coverage.
#   COVERAGE_FLOOR_NET=<pct>  recorded floor for src/net/ line coverage.
#   SERVER_SMOKE={1,only} server smoke stage: boots the demo's HTTP
#       serving mode on an ephemeral port, curls /healthz, a /search
#       round-trip and /metrics (every server_* series must be present),
#       then requires a clean graceful-drain exit on SIGTERM. "1" adds
#       the stage to the current leg; "only" runs just the stage against
#       an already-built ${BUILD_DIR} (what the CI job step uses).
#       Release legs run it automatically.
#   BUILD_DIR, JOBS       as usual.
#
# BUILD_TYPE=Release additionally smoke-runs the end-to-end bench, tees
# its output to ${BUILD_DIR}/bench_smoke.txt (uploaded as a CI artifact)
# and fails if the bench crashed or any required counter is missing from
# the output — the guard for the engine's metrics/batch/stripe counters.
# The Release leg also drives the closed-loop HTTP load harness
# (bench_http_load) against a live server, recording latency percentiles
# to ${BUILD_DIR}/BENCH_http_load.json (a CI artifact) and failing on any
# dropped request, shed-accounting mismatch or missing counter. Finally
# it smoke-runs perfbench (analyst_cold and session_steer, 2 s each) and
# fails unless both exit 0 with "correct":true on their last line and a
# setup_s of at most 0.25 s, plus a traced 2 s session_steer run that
# fails when session.stages_skipped_per_refine drops below 2.0 (Refines
# that stop resuming plans, e.g. after a cached Ask, read about 1.3).
set -euo pipefail
cd "$(dirname "$0")"

BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
SANITIZE="${SANITIZE:-}"
FORMAT="${FORMAT:-}"
FAULTS="${FAULTS:-}"
COVERAGE="${COVERAGE:-}"
SERVER_SMOKE="${SERVER_SMOKE:-}"
CTEST_FILTER="${CTEST_FILTER:-}"
JOBS="${JOBS:-$(nproc)}"

# Recorded floors for aggregate line coverage (percent). Never lower one
# to make a red leg green without a written-down reason in the PR.
#
# src/core/: measured 92.0% with the gcov fallback when the gate landed,
# re-measured 92.71% after the queue_depth() surface was added (the new
# lines are exercised by the shedding tests), floored at 85 with slack
# for gcovr-vs-gcov line accounting differences.
COVERAGE_FLOOR="${COVERAGE_FLOOR:-85.0}"
# src/net/: the HTTP front end. http_server_test drives the parser,
# serializer, client and server paths over real sockets and
# net_json_test covers the JSON codec; what stays uncovered is mostly
# syscall-error plumbing (ENOMEM-class socket failures) that a unit
# suite can't provoke. Measured 84.41% with the gcov fallback when the
# front end landed; floored at 78.
COVERAGE_FLOOR_NET="${COVERAGE_FLOOR_NET:-78.0}"

# --------------------------------------------------------------------------
# Lint leg: formatting is a build-free check, reproducible locally with
# FORMAT=1 ./ci.sh (requires clang-format; CI installs it).
# --------------------------------------------------------------------------
if [[ -n "${FORMAT}" ]]; then
  # Pinned major version first: formatting verdicts must not flip when a
  # distro bumps its default clang-format. CI installs clang-format-18;
  # override with CLANG_FORMAT=... locally.
  CLANG_FORMAT="${CLANG_FORMAT:-}"
  if [[ -z "${CLANG_FORMAT}" ]]; then
    for candidate in clang-format-18 clang-format; do
      if command -v "${candidate}" >/dev/null; then
        CLANG_FORMAT="${candidate}"
        break
      fi
    done
  fi
  if [[ -z "${CLANG_FORMAT}" ]]; then
    echo "FORMAT=1 requires clang-format on PATH (CI: apt-get install" \
         "clang-format-18)" >&2
    exit 2
  fi
  "${CLANG_FORMAT}" --version
  mapfile -t files < <(git ls-files \
      'src/**/*.h' 'src/**/*.cc' \
      'tests/*.cc' 'bench/*.cc' 'bench/*.h' 'examples/*.cpp')
  if [[ "${#files[@]}" -eq 0 ]]; then
    echo "FORMAT=1 matched no files — tree layout changed?" >&2
    exit 2
  fi
  echo "checking formatting of ${#files[@]} files"
  "${CLANG_FORMAT}" --dry-run --Werror "${files[@]}"
  echo "clang-format OK"
  exit 0
fi

# --------------------------------------------------------------------------
# Fault leg: the failpoint sweep must be clean under both sanitizers —
# TSan for the pool fan-out around poisoned tasks and the async snippet
# streams past poisoned snippets, ASan+LSan for leaks on the
# contained-exception paths. Reuses
# the standard sanitizer build dirs so a box that already ran those legs
# only pays the (filtered) test time.
# --------------------------------------------------------------------------
if [[ -n "${FAULTS}" ]]; then
  FAULTS= SANITIZE=tsan CTEST_FILTER=fault "$0"
  FAULTS= SANITIZE=asan CTEST_FILTER=fault "$0"
  echo "fault leg OK: fault_injection_test clean under TSan and ASan"
  exit 0
fi

CMAKE_ARGS=()
CTEST_ARGS=()

# The coverage leg claims its build dir before the default-dir fallback
# below can: instrumented objects must never land in (and poison the
# CMake cache of) the plain build/ tree.
if [[ -n "${COVERAGE}" ]]; then
  if [[ -n "${SANITIZE}" ]]; then
    echo "COVERAGE=1 and SANITIZE are mutually exclusive legs" >&2
    exit 2
  fi
  BUILD_TYPE=Debug
  BUILD_DIR="${BUILD_DIR:-build-coverage}"
  CMAKE_ARGS+=(-DSODA_COVERAGE=ON)
fi

case "${SANITIZE}" in
  "")
    BUILD_DIR="${BUILD_DIR:-build}"
    ;;
  tsan)
    BUILD_TYPE=Debug
    BUILD_DIR="${BUILD_DIR:-build-tsan}"
    CMAKE_ARGS+=(-DSODA_SANITIZE=thread)
    # The concurrency surface is what TSan is here for; the serial suites
    # (and the slow property-based sweep) run in the plain legs.
    # CTEST_FILTER narrows further (the FAULTS leg passes 'fault').
    CTEST_ARGS+=(-R "${CTEST_FILTER:-concurrency|engine|batch_async|metrics|pipeline|freshness|session|http|server|net|fault|trace|executor|storage}")
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
    ;;
  asan)
    BUILD_TYPE=Debug
    BUILD_DIR="${BUILD_DIR:-build-asan}"
    CMAKE_ARGS+=(-DSODA_SANITIZE=address,undefined)
    # Beyond the TSan set: the pattern, metadata-graph and join-graph
    # suites and the golden SQL test, which walk the matcher's scan loops
    # and the join-graph harvest, and the token-index suite (ApplyDelta
    # against a rebuild, over the dictionary shared with the change log).
    CTEST_ARGS+=(-R "${CTEST_FILTER:-concurrency|engine|batch_async|metrics|pipeline|freshness|session|http|server|net|fault|trace|executor|storage|pattern|graph|join|golden|token}")
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}"
    ;;
  *)
    echo "unknown SANITIZE='${SANITIZE}' (want tsan or asan)" >&2
    exit 2
    ;;
esac

# --------------------------------------------------------------------------
# Server smoke stage: boots the demo's HTTP serving mode on an ephemeral
# port and proves the whole front end over real sockets — /healthz
# answers, /search round-trips a query, /search?stream=1 ends with its
# done event, /metrics exports every server_* series — then SIGTERMs the process and requires a clean graceful-drain
# exit. bench_http_load --probe performs the same checks through the
# in-tree HTTP client, so the stage keeps its teeth on a curl-less box
# (and cross-checks curl when both are present).
# --------------------------------------------------------------------------
run_server_smoke() {
  local demo="${BUILD_DIR}/example_service_demo"
  if [[ ! -x "${demo}" ]]; then
    echo "server smoke: ${demo} not built" >&2
    return 1
  fi
  local log="${BUILD_DIR}/server_smoke.log"
  "${demo}" --serve >"${log}" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's|.*serving on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
               "${log}" | head -n 1)
    [[ -n "${port}" ]] && break
    if ! kill -0 "${pid}" 2>/dev/null; then
      echo "server smoke: demo exited before announcing its port" >&2
      cat "${log}" >&2
      return 1
    fi
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "server smoke: no port announced within 10s" >&2
    kill "${pid}" 2>/dev/null || true
    return 1
  fi
  echo "server smoke: demo serving on 127.0.0.1:${port}"

  local status=0
  if [[ -x "${BUILD_DIR}/bench_http_load" ]]; then
    "${BUILD_DIR}/bench_http_load" --probe --port "${port}" || status=1
  fi
  if command -v curl >/dev/null; then
    curl -fsS --max-time 10 "http://127.0.0.1:${port}/healthz" \
        | grep -qx 'ok' \
        || { echo "server smoke: /healthz check failed" >&2; status=1; }
    curl -fsS --max-time 30 -X POST \
        -d '{"query":"addresses Sara Guttinger"}' \
        "http://127.0.0.1:${port}/search" \
        | grep -q '"outputs"' \
        || { echo "server smoke: /search round-trip failed" >&2; status=1; }
    # A streamed search goes through the coalesced chunk writer: curl -f
    # requires the 200, and the last body line must be the done event.
    curl -fsS --max-time 30 -X POST \
        -d '{"query":"addresses Sara Guttinger"}' \
        "http://127.0.0.1:${port}/search?stream=1" \
        | tail -n 1 | grep -q '"event":"done"' \
        || { echo "server smoke: /search?stream=1 check failed" >&2; status=1; }
    local metrics series
    metrics=$(curl -fsS --max-time 10 "http://127.0.0.1:${port}/metrics") \
        || status=1
    for series in soda_server_requests_total soda_server_accepted_total \
                  soda_server_shed_total soda_server_timeouts_total \
                  soda_server_stream_writes_total soda_server_inflight; do
      if ! grep -q "${series}" <<<"${metrics}"; then
        echo "server smoke: /metrics is missing series '${series}'" >&2
        status=1
      fi
    done
    curl -fsS --max-time 10 "http://127.0.0.1:${port}/debug/vars" \
        | grep -q '"trace"' \
        || { echo "server smoke: /debug/vars check failed" >&2; status=1; }
    curl -fsS --max-time 10 "http://127.0.0.1:${port}/debug/traces?min_ms=0" \
        | grep -q '"traces"' \
        || { echo "server smoke: /debug/traces check failed" >&2; status=1; }
  elif [[ ! -x "${BUILD_DIR}/bench_http_load" ]]; then
    echo "server smoke: neither curl nor bench_http_load available" >&2
    status=1
  fi

  kill -TERM "${pid}" 2>/dev/null || true
  if ! wait "${pid}"; then
    echo "server smoke: demo did not drain cleanly on SIGTERM" >&2
    cat "${log}" >&2
    return 1
  fi
  if [[ "${status}" -ne 0 ]]; then
    cat "${log}" >&2
    return 1
  fi
  echo "server smoke OK: healthz + search round-trip + streamed search" \
       "+ metrics series + debug endpoints + clean drain"
}

# The CI job step re-enters ci.sh with SERVER_SMOKE=only after the
# build/test leg so the smoke shows up as its own step — no reconfigure,
# no rebuild, just the stage against the existing tree.
if [[ "${SERVER_SMOKE}" == "only" ]]; then
  run_server_smoke
  exit 0
fi

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" \
      "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"
# --timeout: a deadlocked async/barrier test fails in 2 minutes instead
# of hanging the runner until the job-level timeout. --no-tests=error:
# a sanitizer leg whose -R filter matches nothing (or a tree configured
# without GTest) must fail loudly, not pass vacuously.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
      --timeout 120 --no-tests=error "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

# --------------------------------------------------------------------------
# Coverage leg: aggregate line coverage per gated subtree — src/core/
# (the pipeline and both engines, where the paper's algorithm lives) and
# src/net/ (the HTTP front end) — each against its recorded floor.
# gcovr gives the pretty per-file report for the artifact; the gcov
# fallback computes the same aggregate so the gates work on a bare
# toolchain.
# --------------------------------------------------------------------------

# Aggregate line coverage (percent, 2 decimals) of one source subtree,
# e.g. `subtree_pct src/core core`. The library objects accumulate every
# test binary's execution counts in their .gcda files; `gcov -n` prints
# per-source summaries without writing .gcov files. Headers under the
# subtree are included (the engine templates live there). gcov emits one
# entry per (file, including TU) pair, so shared headers appear once per
# includer: dedupe by keeping each file's best-covered entry — an
# approximation of the cross-TU union (gcovr merges exactly), which is
# what the floors' slack is for. A file with no executable lines gets no
# "Lines executed" line of its own, so `keep` resets there: otherwise the
# TU's trailing total would be credited to that file. Self-check: a file
# whose counted lines exceed its length fails the leg (a parse bug, not a
# coverage number).
subtree_pct() {
  local subtree="$1" label="$2"
  if command -v gcovr >/dev/null; then
    gcovr --root . --filter "${subtree}/" "${BUILD_DIR}" \
        | tee "${COV_DIR}/coverage_${label}.txt" \
        | awk '/^TOTAL/ { gsub(/%/, "", $4); print $4 }'
    return
  fi
  local pct
  pct=$(
    find "${BUILD_DIR}/CMakeFiles/soda.dir" -name '*.gcda' \
         -path "*${subtree}*" -print0 |
    xargs -0 -r gcov -n 2>/dev/null |
    awk -v subtree="${subtree}/" '
      /^File /            { file = $0; keep = index($0, subtree) > 0; next }
      /^No executable lines/ { keep = 0; next }
      keep && /^Lines executed:/ {
        gsub(/Lines executed:|% of /, " ");
        c = $1 / 100.0 * $2
        if (!(file in best) || c > best[file]) {
          best[file] = c; tot[file] = $2
        }
        keep = 0
      }
      END {
        for (f in best) {
          path = f; sub(/^File \047/, "", path); sub(/\047$/, "", path)
          n = 0
          while ((getline line < path) > 0) n++
          close(path)
          if (tot[f] > n) {
            printf "coverage parser self-check FAILED: %s counts %d lines" \
                   " but has %d\n", path, tot[f], n > "/dev/stderr"
            bad = 1
          }
          covered += best[f]; total += tot[f]
        }
        if (bad) exit 1
        if (total > 0) printf "%.2f", covered * 100.0 / total
      }
    '
  ) || return 1
  echo "${subtree}/ aggregate line coverage: ${pct}%" \
      | tee "${COV_DIR}/coverage_${label}.txt" >&2
  echo "${pct}"
}

# Fails the leg when a subtree's measured coverage is missing or under
# its floor.
check_floor() {
  local subtree="$1" pct="$2" floor="$3"
  if [[ -z "${pct}" ]]; then
    echo "failed to compute ${subtree}/ coverage (no .gcda data?)" >&2
    exit 1
  fi
  echo "${subtree}/ line coverage: ${pct}% (floor: ${floor}%)"
  awk -v pct="${pct}" -v floor="${floor}" -v subtree="${subtree}" 'BEGIN {
    if (pct + 0 < floor + 0) {
      printf "coverage gate FAILED: %s %.2f%% < %.2f%% floor\n",
             subtree, pct, floor
      exit 1
    }
    printf "coverage gate OK: %s %.2f%% >= %.2f%% floor\n",
           subtree, pct, floor
  }'
}

if [[ -n "${COVERAGE}" ]]; then
  COV_DIR="${BUILD_DIR}/coverage"
  mkdir -p "${COV_DIR}"
  if command -v gcovr >/dev/null; then
    gcovr --root . --filter 'src/' --print-summary \
          --html-details "${COV_DIR}/coverage.html" \
          --xml "${COV_DIR}/coverage.xml" \
          --txt "${COV_DIR}/coverage.txt" "${BUILD_DIR}"
  else
    echo "gcovr not found — falling back to plain gcov aggregation"
  fi
  core_pct=$(subtree_pct src/core core)
  net_pct=$(subtree_pct src/net net)
  check_floor src/core "${core_pct}" "${COVERAGE_FLOOR}"
  check_floor src/net "${net_pct}" "${COVERAGE_FLOOR_NET}"
fi

if [[ "${BUILD_TYPE}" == "Release" &&
      -x "${BUILD_DIR}/bench_micro_end_to_end" ]]; then
  # Smoke-run: one fast repetition, enough to catch crashes and record
  # the thread-sweep + cache + batch/async + cache-stripe numbers in
  # CI logs.
  BENCH_OUT="${BUILD_DIR}/bench_smoke.txt"
  "${BUILD_DIR}/bench_micro_end_to_end" \
      --benchmark_min_time=0.05 \
      --benchmark_counters_tabular=true 2>&1 | tee "${BENCH_OUT}"

  # Counter guard: the sweep and the batch/async/metrics/stripe surfaces
  # must all have reported. A missing counter means a bench silently
  # stopped exercising (or exporting) that path.
  for counter in threads interpretations hit_rate batch_queries \
                 dedup_hits snippets_streamed cache_hits stage_samples \
                 shards stripe_capacity stripe_entries \
                 closure_traverse_hits closure_path_lookups \
                 freshness_events freshness_keys_invalidated \
                 freshness_delta_postings \
                 session_refines session_stages_skipped \
                 trace_spans trace_sampled trace_dropped \
                 snippet_statements tuples_per_statement seed_reductions; do
    if ! grep -q "${counter}" "${BENCH_OUT}"; then
      echo "bench smoke-run output is missing counter '${counter}'" >&2
      exit 1
    fi
  done
  echo "bench smoke-run OK: all required counters present"
fi

if [[ "${BUILD_TYPE}" == "Release" &&
      -x "${BUILD_DIR}/bench_micro_index_lookup" ]]; then
  # Index micro-bench artifact: the phrase-length × postings-skew sweep
  # and the memory-accounting counters, recorded as JSON for comparison
  # across PRs (uploaded alongside bench_smoke.txt).
  "${BUILD_DIR}/bench_micro_index_lookup" \
      --benchmark_min_time=0.05 \
      --benchmark_counters_tabular=true \
      --benchmark_out="${BUILD_DIR}/bench_index_lookup.json" \
      --benchmark_out_format=json
  echo "index lookup bench OK: JSON at ${BUILD_DIR}/bench_index_lookup.json"
fi

if [[ "${BUILD_TYPE}" == "Release" && -x "${BUILD_DIR}/bench_http_load" ]]; then
  # Closed-loop HTTP load sweep over a live server: mixed hit/miss and
  # mutation traffic through the freshness path, exact latency
  # percentiles recorded to BENCH_http_load.json (uploaded as a CI
  # artifact). The harness itself exits nonzero on any dropped
  # (non-shed) request or a shed-accounting mismatch between client and
  # server; the guard below additionally requires the latency and shed
  # counters to have reported at all.
  LOAD_OUT="${BUILD_DIR}/bench_http_load.txt"
  "${BUILD_DIR}/bench_http_load" \
      --requests 120 --concurrency 1,4 \
      --out "${BUILD_DIR}/BENCH_http_load.json" 2>&1 | tee "${LOAD_OUT}"
  for token in server_requests= server_shed= load_p50_ms= load_p99_ms= \
               load_p999_ms=; do
    if ! grep -q "${token}" "${LOAD_OUT}"; then
      echo "http load output is missing '${token}'" >&2
      exit 1
    fi
  done
  echo "http load harness OK: JSON at ${BUILD_DIR}/BENCH_http_load.json"
fi

if [[ "${BUILD_TYPE}" == "Release" ]]; then
  # perfbench smoke: perfbench/ builds src/ through its own CMakeLists
  # (into .bench_build/) and drives the pipeline APIs directly, so a short
  # run of each gated workload proves it still builds, runs, and answers
  # byte-for-byte like its cache-off reference engine.
  for workload in analyst_cold session_steer; do
    PERF_OUT="${BUILD_DIR}/perfbench_${workload}.txt"
    if ! python3 perfbench/run.py --workload "${workload}" --seed 1 \
           --seconds 2 --trace 0 >"${PERF_OUT}"; then
      echo "perfbench ${workload} smoke run failed" >&2
      exit 1
    fi
    if ! tail -n 1 "${PERF_OUT}" | grep -q '"correct":true'; then
      echo "perfbench ${workload}: last line does not report" \
           '"correct":true' >&2
      tail -n 1 "${PERF_OUT}" >&2
      exit 1
    fi
    # Setup ceiling: building the shared core takes ~25 ms, so 0.25 s
    # leaves room for box noise but fails if pattern matching at setup
    # blows up again (walking triples in library order costs ~0.6 s).
    setup_s=$(tail -n 1 "${PERF_OUT}" | python3 -c \
        'import json, sys; print(json.load(sys.stdin)["metrics"]["setup_s"]["value"])')
    if ! awk -v s="${setup_s}" 'BEGIN { exit !(s + 0 <= 0.25) }'; then
      echo "perfbench ${workload}: setup_s ${setup_s} s exceeds the" \
           "0.25 s ceiling" >&2
      exit 1
    fi
  done
  echo "perfbench smoke OK: analyst_cold + session_steer correct," \
       "setup_s under 0.25 s"

  # Plan reuse guard: a session's Refines resume the plan its answer was
  # translated from — cached beside the answer when the cache served it —
  # so the traced run's stage skips per Refine stay well above what cold
  # first Refines after cached Asks would give.
  PERF_OUT="${BUILD_DIR}/perfbench_session_steer_trace.txt"
  if ! python3 perfbench/run.py --workload session_steer --seed 1 \
         --seconds 2 --trace 1 >"${PERF_OUT}"; then
    echo "perfbench session_steer traced run failed" >&2
    exit 1
  fi
  skipped=$(tail -n 1 "${PERF_OUT}" | python3 -c \
      'import json, sys; print(json.load(sys.stdin)["metrics"]["session.stages_skipped_per_refine"]["value"])')
  if ! awk -v s="${skipped}" 'BEGIN { exit !(s + 0 >= 2.0) }'; then
    echo "perfbench session_steer: stages_skipped_per_refine ${skipped}" \
         "is below 2.0" >&2
    exit 1
  fi
  echo "perfbench plan reuse OK: ${skipped} stages skipped per Refine"
fi

# The Release leg always proves the serving front end end-to-end;
# SERVER_SMOKE=1 adds the stage to any other leg.
if [[ -n "${SERVER_SMOKE}" || "${BUILD_TYPE}" == "Release" ]]; then
  run_server_smoke
fi
