# Runs BENCH with ARGS (space-separated) and passes only when it exits with
# EXIT and its stderr matches the STDERR regex. ctest's WILL_FAIL and
# PASS_REGULAR_EXPRESSION cannot require both at once.
#
#   cmake -DBENCH=<path> -DARGS="<args>" -DEXIT=<code> -DSTDERR=<regex> \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
message("${err}")
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "${BENCH} exited ${code}, expected ${EXIT}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}'")
endif()
