# One paper_counts_<name> test: runs a bench binary in the directory of RUN
# (its BENCH_<name>.json), then diffs that run's counters against BASELINE.
#   cmake -DBENCH=<binary> -DCOMPARE=<bench_compare> -DBASELINE=<json>
#         -DRUN=<json> -P paper_counts.cmake
get_filename_component(workdir ${RUN} DIRECTORY)
file(MAKE_DIRECTORY ${workdir})
# A run that writes no JSON must not be judged by a stale one.
file(REMOVE ${RUN})
execute_process(COMMAND ${BENCH} --benchmark_min_time=0.01
                WORKING_DIRECTORY ${workdir} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
execute_process(COMMAND ${COMPARE} ${BASELINE} ${RUN} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${RUN} does not match ${BASELINE}; if the change is "
                      "intended, copy the new run into bench/baselines/")
endif()
