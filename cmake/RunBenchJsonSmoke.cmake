# Runs a bench binary with CAUSALEC_BENCH_DIR pointed at a scratch
# directory, then validates the BENCH_*.json it wrote with
# tools/check_bench_json.py. Invoked by the bench_json_smoke,
# recovery_bench_smoke, kernel_bench_smoke, obs_bench_smoke and
# repair_bench_smoke CTest entries (bench/CMakeLists.txt):
#   cmake -DBENCH_EXE=... -DBENCH_ARGS=... -DBENCH_JSON=... -DPYTHON=...
#         -DVALIDATOR=... -DWORK_DIR=... -P RunBenchJsonSmoke.cmake
# Optional: -DBASELINE=<floors json> [-DMAX_REGRESSION=<frac>] forwards
# --baseline/--max-regression to the validator, failing the test when a
# pinned metric drops more than the tolerance below its committed floor.
# Optional: -DREQUIRE_KEYS=<row[.metric],...> forwards --require-keys,
# failing the test when the bench stops emitting an expected row -- the
# presence gate for rows whose *values* are too machine-dependent to pin
# in a committed baseline.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "CAUSALEC_BENCH_DIR=${WORK_DIR}"
          "${BENCH_EXE}" ${BENCH_ARGS}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "bench failed (rc=${bench_rc}):\n${bench_out}\n${bench_err}")
endif()

set(json_path "${WORK_DIR}/${BENCH_JSON}")
if(NOT EXISTS "${json_path}")
  message(FATAL_ERROR "bench did not write ${json_path}:\n${bench_err}")
endif()

set(validator_args "${json_path}")
if(DEFINED REQUIRE_KEYS)
  list(PREPEND validator_args --require-keys "${REQUIRE_KEYS}")
endif()
if(DEFINED BASELINE)
  list(PREPEND validator_args --baseline "${BASELINE}")
  if(DEFINED MAX_REGRESSION)
    list(PREPEND validator_args --max-regression "${MAX_REGRESSION}")
  endif()
endif()

execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" ${validator_args}
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR
          "schema validation failed:\n${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")
