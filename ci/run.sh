#!/usr/bin/env bash
# Tier-1 verification via the CMake presets (CMakePresets.json):
#   ci/run.sh            Release build + ctest
#   ci/run.sh sanitize   additional ASan/UBSan build + ctest (build-asan/)
#   ci/run.sh tsan       additional TSan build of the concurrency-sensitive
#                        suites (thread pool, prediction service, plan
#                        search, parallel backward engine, data-parallel
#                        trainer, online refresh) run directly — the full
#                        suite is too slow under TSan and the other suites
#                        are single-threaded
#   ci/run.sh fault      additional ASan/UBSan build of the fault/serving/
#                        plan-search suites plus the fig10 fault drill
#                        (checkpoint corruption + quarantine + injected
#                        NaN/delay faults during a real plan search, which
#                        must still produce a valid finite plan)
#   ci/run.sh perf       additional -march=native build (build-native/), the
#                        inference parity + tensor suites under it, and a
#                        smoke micro_kernels run recording GEMM /
#                        warm-predict / batch speedups, the encode_search
#                        row (per-slice vs program-keyed shared stage
#                        encoding of a cold plan search: one DAG build and
#                        encode per distinct stage program) and the
#                        predict_search row (its cold forwards, serial vs
#                        on 2- and 4-worker pools)
#                        to build-native/BENCH_kernels.json
#   ci/run.sh train      training lane: the parallel-backward / fused
#                        attention node / trainer / online-refresh suites plus
#                        a smoke train_throughput run recording epoch time vs
#                        thread count (and speedup over one thread) for the
#                        MLP and the Fig. 10 DAG Transformer workloads to
#                        build/BENCH_train.json; it fails when any thread
#                        count's final loss differs from one thread's
#   ci/run.sh cluster    additional ASan/UBSan build of the cluster suite:
#                        wire-codec fuzz, router + shard workers over Unix
#                        sockets, fork/exec worker processes, and the SIGKILL
#                        mid-plan-search failover drill
#   ci/run.sh compile    compiled-inference lane: ASan/UBSan build of the
#                        compile suite (fp32 plan-vs-tape parity, planner
#                        properties, allocation-free warm forwards,
#                        PredictBatch-vs-PredictSeconds bit-parity on every
#                        pool, one program per shape class, program-cache
#                        LRU and owner eviction), the Infer suite (generated-DAG parity,
#                        the tape fallback), the packed-GEMM tests and the
#                        PredictMany batch-vs-per-query suites, then the
#                        fig10 compile drill (plan search priced through
#                        the compiled programs vs the tape) and batch drill
#                        (plan search through the per-query vs the batch
#                        oracle) on both paper platforms, asserting equal
#                        plans (bit-equal for the batch drill)
#   ci/run.sh portable   build without -march=native (build-portable/) and
#                        run the tensor, Infer and compile suites, so the
#                        6x16 GEMM tile that non-AVX-512 builds select stays
#                        under test on AVX-512 hosts
#   ci/run.sh overload   overload-protection lane: the deadline / admission /
#                        router-timeout / reaping suites, the supervisor
#                        fork/exec suite (crash-loop quarantine, hung-worker
#                        SIGKILL, the kill+stop+overload plan-search drill),
#                        and a smoke overload_soak run recording the
#                        protected-vs-unprotected client sweep (admitted
#                        service p99 bound + zero post-deadline forwards) to
#                        build/BENCH_overload.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Run a GoogleTest binary under a --gtest_filter, failing first when any of
# the filter's patterns selects no test: GoogleTest passes an empty
# selection, so a renamed or moved suite would otherwise silently empty a
# lane.
run_filtered() {
  local binary="$1" filter="$2" pattern listed
  local -a patterns
  IFS=: read -ra patterns <<< "$filter"
  for pattern in "${patterns[@]}"; do
    listed="$("$binary" --gtest_list_tests --gtest_filter="$pattern")"
    if ! grep -q '^  ' <<< "$listed"; then
      echo "ci/run.sh: '$pattern' selects no test in $binary" >&2
      return 1
    fi
  done
  "$binary" --gtest_filter="$filter"
}

cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

if [[ "${1:-}" == "sanitize" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -j "$(nproc)"
fi

if [[ "${1:-}" == "fault" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" \
    --target fault_test serve_test parallel_test fig10_optimization
  # The suites configure injection themselves (and must also pass clean).
  ./build-asan/tests/fault_test
  ./build-asan/tests/serve_test
  ./build-asan/tests/parallel_test
  # Full drill under ASan with an env-driven fault storm: torn checkpoint,
  # flaky reads, NaN forwards, delayed forwards, delayed pool dispatch.
  PREDTOP_FAULT="ckpt_read:0.3;predict_nan:0.1;predict_delay_ms:2;predict_delay_p:0.05;pool_delay_ms:1;pool_delay_p:0.02" \
    PREDTOP_FAULT_SEED=7 PREDTOP_FAULT_DRILL=1 PREDTOP_EPOCHS=40 \
    ./build-asan/bench/fig10_optimization
fi

if [[ "${1:-}" == "compile" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" \
    --target compile_test infer_test tensor_test serve_test fig10_optimization
  # Full compile suite under ASan/UBSan: fp32 parity for every predictor,
  # planner properties, the plan-buffer high-water-mark (allocation-free warm
  # forward) assertion, PredictBatch-vs-PredictSeconds bit-parity for every
  # predictor and DAGT ablation across batch sizes {1,2,7,64} with no pool
  # and pools of {1,2,8} workers, one program build per shape class, cache
  # LRU/eviction, and concurrent compiled forwards. The Infer suite adds
  # compiled-vs-tape parity on generated DAGs and the tape fallback; the
  # packed-GEMM tests re-drive the kernels the compiled programs call into.
  ./build-asan/tests/compile_test
  ./build-asan/tests/infer_test
  run_filtered ./build-asan/tests/tensor_test 'PackedGemm.*'
  # PredictMany's batch path vs per-query Predict, plus the exported
  # program-cache counters.
  run_filtered ./build-asan/tests/serve_test 'Service.*'
  # Plan search priced through the compiled programs and through the tape,
  # both paper platforms: the plans must be equal and the compiled path must
  # actually engage.
  PREDTOP_COMPILE_DRILL=1 PREDTOP_EPOCHS=40 ./build-asan/bench/fig10_optimization
  # Plan search through the per-query oracle then the batch oracle: the
  # chosen plans must be BIT-equal (every batched forward is the same
  # sequential compiled forward) and the batch path must engage. Both legs read the search's shared stage
  # encodings, so this also pins sharing as plan-neutral.
  PREDTOP_BATCH_DRILL=1 PREDTOP_EPOCHS=40 ./build-asan/bench/fig10_optimization
fi

if [[ "${1:-}" == "portable" ]]; then
  cmake -S . -B build-portable -DCMAKE_BUILD_TYPE=Release -DPREDTOP_NATIVE=OFF >/dev/null
  cmake --build build-portable -j "$(nproc)" --target tensor_test infer_test compile_test
  ./build-portable/tests/tensor_test
  ./build-portable/tests/infer_test
  ./build-portable/tests/compile_test
fi

if [[ "${1:-}" == "tsan" ]]; then
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$(nproc)" \
    --target util_test serve_test parallel_test infer_test cluster_test \
    autograd_test nn_test online_test compile_test
  export TSAN_OPTIONS="halt_on_error=1"
  ./build-tsan/tests/util_test
  ./build-tsan/tests/parallel_test
  # Parallel backward engine (staged deterministic accumulation, concurrent
  # BackwardInto on shared parameters), the fused attention node (its
  # per-thread scratch) and the data-parallel trainer, including MLP, DAG
  # Transformer, GCN and GAT fits with concurrent forwards and backwards.
  run_filtered ./build-tsan/tests/autograd_test \
    'Engine.*:MaskedAttention.*:Autograd.MaskedAttentionGradients'
  run_filtered ./build-tsan/tests/nn_test 'ParallelTrainer.*'
  # Background fine-tune thread hot-swapping checkpoints under live serving.
  ./build-tsan/tests/online_test
  # The ServingOracle.FannedOut* tests run a plan search's per-mesh
  # PredictMany calls, and their shape groups, concurrently on a 4-worker
  # service pool.
  run_filtered ./build-tsan/tests/serve_test \
    'LruCache.*:Service.*:ServingOracle.PredictBatchMatchesScalarQueries:ServingOracle.FannedOut*:ThreadPool.*'
  # Concurrent Infer calls on one shared model (compiled forwards and the
  # tape fallback side by side) plus the parity suite that drives every
  # compiled kernel at least once under TSan.
  run_filtered ./build-tsan/tests/infer_test 'InferConcurrency.*:InferParity.*'
  # Concurrent *compiled* forwards on one shared model: the program cache's
  # build-once-per-shape race, per-thread plan buffers, and the packed
  # weight snapshots under simultaneous readers — through Infer and through
  # concurrent LatencyRegressor::PredictBatch calls on one shared regressor,
  # some fanning out on one shared pool — plus PredictBatch's shape groups,
  # and each group's members, as nested pool tasks sharing one predictor's
  # program cache, depth-encoding cache and Linear snapshots.
  run_filtered ./build-tsan/tests/compile_test \
    'CompiledConcurrency.*:CompiledBatchConcurrency.*:ProgramCache.*:CompiledParity.AllPredictorsMatchTape:CompiledParity.DepthEncodingCacheSeparatesNodeOrders:CompiledBatch.RegressorBatchFanOutMatchesPerGraphOnEveryPool:CompiledBatch.InterleavedModeMatchesAcrossThreadCounts:CompiledBatch.OneProgramPerShapeClassOnAPool'
  # Router concurrency: the cluster-wide coalescing map, per-worker
  # connection locking and failover counters under concurrent clients, the
  # worker's StageEncodings store shared by its connection threads, plus
  # the overload-protection suites (deadline shedding, admission budgets,
  # per-attempt timeouts / breaker trips, connection-thread reaping).
  # ClusterProcess/SupervisorProcess are excluded — fork/exec and TSan do
  # not mix; the in-process LocalCluster drives identical code paths on
  # threads.
  run_filtered ./build-tsan/tests/cluster_test \
    'ClusterE2E.*:StageEncodings.*:Ring.*:Deadline.*:Admission.*:RouterTimeout.*:WorkerReap.*'
fi

if [[ "${1:-}" == "perf" ]]; then
  cmake --preset native >/dev/null
  cmake --build --preset native -j "$(nproc)" \
    --target infer_test tensor_test nn_test micro_kernels
  ./build-native/tests/tensor_test
  ./build-native/tests/nn_test
  ./build-native/tests/infer_test
  PREDTOP_BENCH_SMOKE=1 PREDTOP_BENCH_JSON=build-native/BENCH_kernels.json \
    ./build-native/bench/micro_kernels
fi

if [[ "${1:-}" == "train" ]]; then
  cmake --build --preset default -j "$(nproc)" \
    --target autograd_test nn_test online_test train_throughput
  run_filtered ./build/tests/autograd_test \
    'Engine.*:MaskedAttention.*:Autograd.MaskedAttentionGradients'
  run_filtered ./build/tests/nn_test 'ParallelTrainer.*:Adam.*:CosineDecay.*:SplitDataset.*'
  ./build/tests/online_test
  # Thread sweep over Trainer::Fit; the 1-thread row is the baseline, so the
  # JSON records speedup directly, and the run exits non-zero unless every
  # row's final loss equals the 1-thread row's.
  PREDTOP_BENCH_SMOKE=1 PREDTOP_BENCH_JSON=build/BENCH_train.json \
    ./build/bench/train_throughput
fi

if [[ "${1:-}" == "cluster" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" --target cluster_test
  # The full cluster suite under ASan/UBSan: wire-codec round-trip + fuzz
  # rejection, router + 2 shard workers over Unix sockets (plan-search
  # parity with the in-process oracle), fork/exec worker processes with
  # typed startup failures, and the SIGKILL mid-PredictMany failover drill.
  ./build-asan/tests/cluster_test
fi

if [[ "${1:-}" == "overload" ]]; then
  cmake --build --preset default -j "$(nproc)" \
    --target cluster_test serve_test overload_soak
  # Deadline propagation + shedding, admission budgets (in-flight and
  # connection), per-attempt router timeouts / circuit breaker / retry
  # budget, and connection-thread reaping — all in-process.
  run_filtered ./build/tests/cluster_test 'Deadline.*:Admission.*:RouterTimeout.*:WorkerReap.*'
  run_filtered ./build/tests/serve_test 'Service.*'
  # Supervisor over real fork/exec workers: crash-loop backoff + quarantine,
  # corrupt-checkpoint permanent failure, heartbeat-drop hung detection, and
  # the full drill (SIGKILL + SIGSTOP + injected overload during plan
  # search, which must still match the in-process plan exactly).
  run_filtered ./build/tests/cluster_test 'SupervisorProcess.*'
  # Protected-vs-unprotected closed-loop client sweep against a live
  # cluster; asserts the two drill criteria (admitted service p99 within 2x
  # unloaded, zero post-deadline completions) and records the table.
  PREDTOP_BENCH_SMOKE=1 PREDTOP_BENCH_JSON=build/BENCH_overload.json \
    ./build/bench/overload_soak
fi
