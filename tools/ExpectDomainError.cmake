# Runs a command and fails unless it exits with exactly 1 (pcbound's
# domain-error exit) and its stderr matches the MATCH regex. Unlike
# ctest's WILL_FAIL, an abort (exit 134) or a crash does not pass for the
# clean, positioned diagnostic the test asks for.
#
# Usage: cmake -DCMD=<path> "-DARGS=<args>" "-DMATCH=<regex>"
#              -P ExpectDomainError.cmake

separate_arguments(CMD_ARGS UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${CMD} ${CMD_ARGS}
                OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Code)
if(NOT Code STREQUAL "1")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${Code}, expected 1\n${Err}")
endif()
if(NOT Err MATCHES "${MATCH}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stderr lacks '${MATCH}':\n${Err}")
endif()
