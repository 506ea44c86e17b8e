# Run PROGRAM with the space-separated ARGS and fail unless its stdout
# equals the file EXPECTED byte for byte. The output stays in ACTUAL
# for diffing. Usage:
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DEXPECTED=<file>
#         -DACTUAL=<file> -P CompareOutput.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "output of ${PROGRAM} ${ARGS} differs from ${EXPECTED}; "
        "see ${ACTUAL}")
endif()
