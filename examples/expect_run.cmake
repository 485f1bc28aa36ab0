# Runs one command and passes iff its output (stdout and stderr, merged)
# matches a regex AND it exits with the expected code. ctest's
# PASS_REGULAR_EXPRESSION alone replaces the exit-status check, so a
# refusal that printed the right line but exited 0 would pass it.
#
#   cmake -DEXE=<program> "-DARGS=<space-separated arguments>"
#         "-DREGEX=<regex>" -DEXIT=<code> -P expect_run.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                RESULT_VARIABLE rc)
message("${out}")
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match the regex: ${REGEX}")
endif()
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}")
endif()
