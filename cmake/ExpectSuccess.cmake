# Run PROGRAM with the space-separated ARGS and fail unless it exits 0
# AND its combined stdout/stderr matches REGEX. (A ctest
# PASS_REGULAR_EXPRESSION alone ignores the exit code, so a failing
# run whose text happens to match would pass.) The output is echoed
# for the test log. Usage:
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" "-DREGEX=<regex>"
#         -P ExpectSuccess.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output
                RESULT_VARIABLE status)
message("${output}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
if(NOT output MATCHES "${REGEX}")
    message(FATAL_ERROR
        "output of ${PROGRAM} ${ARGS} does not match '${REGEX}'")
endif()
