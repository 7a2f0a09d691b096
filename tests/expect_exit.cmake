# Runs BIN with ARGS (;-separated) and requires exit code EXIT, plus a
# stderr match for STDERR_REGEX when given. A crash (SIGABRT from an
# assert, say) reports a signal name instead of a code, so it fails too.
if(NOT DEFINED BIN OR NOT DEFINED EXIT)
  message(FATAL_ERROR "expect_exit.cmake needs -DBIN=... and -DEXIT=...")
endif()

execute_process(
  COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}', expected ${EXIT}\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr of ${BIN} ${ARGS} does not match '${STDERR_REGEX}':\n${err}")
endif()
