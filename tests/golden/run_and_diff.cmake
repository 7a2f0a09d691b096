# Runs BIN with ARGS (;-separated) and byte-compares stdout to GOLDEN.
# Used by the golden CLI tests pinning table1_metrics / fault_degradation /
# fig4_bandwidth / multi_cloud / economics / cloudburst_sim.
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "run_and_diff.cmake needs -DBIN=... and -DGOLDEN=...")
endif()

execute_process(
  COMMAND ${BIN} ${ARGS}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  set(got "${CMAKE_CURRENT_BINARY_DIR}/golden_diff_actual.txt")
  file(WRITE ${got} "${actual}")
  message(FATAL_ERROR
    "output of ${BIN} ${ARGS} differs from golden ${GOLDEN}\n"
    "actual output saved to ${got}\n"
    "(regenerate the golden only for an intentional behaviour change)")
endif()
