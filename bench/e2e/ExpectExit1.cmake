# Runs BINARY with ARGS ("|"-separated) and passes only when it exits with
# code 1 and PATTERN appears in its standard error: a rejected argument is
# a clean error, never an abort.
#
#   cmake -DBINARY=... -DARGS="--a|--b" -DPATTERN="..." -P ExpectExit1.cmake

string(REPLACE "|" ";" _args "${ARGS}")
execute_process(COMMAND "${BINARY}" ${_args}
  RESULT_VARIABLE _code OUTPUT_QUIET ERROR_VARIABLE _err)
if(NOT _code STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${_code}':\n${_err}")
endif()
string(FIND "${_err}" "${PATTERN}" _at)
if(_at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${PATTERN}':\n${_err}")
endif()
