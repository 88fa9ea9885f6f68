# Runs a command and fails unless it exits with exactly CODE (default 0)
# and its stdout is byte-identical to the GOLDEN file. With STREAM=stderr
# the golden holds stderr instead (the usage text). With FILE and
# FILE_GOLDEN, the file the command wrote at FILE must also be
# byte-identical to FILE_GOLDEN. On a mismatch the actual output is left
# beside the run as <golden name>.actual.
#
# Usage: cmake -DCMD=<path> "-DARGS=<args>" -DGOLDEN=<file> [-DCODE=<n>]
#              [-DSTREAM=stderr] [-DFILE=<path> -DFILE_GOLDEN=<file>]
#              -P ExpectStdout.cmake

separate_arguments(CMD_ARGS UNIX_COMMAND "${ARGS}")
if(NOT DEFINED CODE)
  set(CODE 0)
endif()

execute_process(COMMAND ${CMD} ${CMD_ARGS}
                OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Code)
if(NOT Code STREQUAL "${CODE}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${Code}, expected ${CODE}\n${Err}")
endif()
if(STREAM STREQUAL "stderr")
  set(Out "${Err}")
endif()

file(READ "${GOLDEN}" Want)
if(NOT Out STREQUAL Want)
  get_filename_component(Name "${GOLDEN}" NAME)
  file(WRITE "${Name}.actual" "${Out}")
  message(FATAL_ERROR "${CMD} ${ARGS}: output differs from ${GOLDEN}; "
                      "the actual output is in ${Name}.actual")
endif()

if(DEFINED FILE)
  file(READ "${FILE}" Wrote)
  file(READ "${FILE_GOLDEN}" WantFile)
  if(NOT Wrote STREQUAL WantFile)
    message(FATAL_ERROR "${CMD} ${ARGS}: ${FILE} differs from ${FILE_GOLDEN}")
  endif()
endif()
